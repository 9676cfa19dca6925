package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} }
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 5},   // ceil(5) = 5th smallest
		{0.9, 9},   // ceil(9) = 9th
		{0.99, 10}, // ceil(9.9) = 10th: p99 of ten samples is the max
		{1, 10},
		{0.01, 1}, // ceil(0.1) = 1st
	}
	for _, c := range cases {
		got := nearestRank(ten(), c.q)
		if got.Value != c.want || got.N != 10 {
			t.Errorf("q=%v: got %+v, want {%v 10}", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != (Percentile{}) {
		t.Errorf("empty: got %+v, want zero value", got)
	}
	if got := nearestRank([]float64{42}, 0.99); got.Value != 42 || got.N != 1 {
		t.Errorf("single: got %+v", got)
	}
	// 200 samples: p99 is the 198th smallest, leaving two beyond it.
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(200 - i)
	}
	if got := nearestRank(s, 0.99); got.Value != 198 || got.N != 200 {
		t.Errorf("200 samples: got %+v, want {198 200}", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2, 10}
	if got := median(in); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(in, []float64{3, 1, 2, 10}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 9}); got != 4 {
		t.Errorf("odd median = %v, want 4", got)
	}
}

func TestCostBetweenExcludesSetup(t *testing.T) {
	start := processSample{CPU: 5 * time.Second, Mallocs: 1_000_000} // set-up already spent
	begin := processSample{CPU: 7 * time.Second, Mallocs: 1_500_000} // load phase starts
	end := processSample{CPU: 9 * time.Second, Mallocs: 1_700_000}
	c := costBetween(begin, end)
	if c.CPU != 2*time.Second || c.Mallocs != 200_000 {
		t.Fatalf("cost = %+v, want 2s and 200000 mallocs", c)
	}
	cpu, allocs := c.perBid(100_000)
	if cpu != 20 || allocs != 2 {
		t.Errorf("per bid = %v us, %v allocs; want 20, 2", cpu, allocs)
	}
	if whole := costBetween(start, end); whole.Mallocs != 700_000 {
		t.Errorf("sanity: whole-run mallocs %d", whole.Mallocs)
	}
	if cpu, allocs := c.perBid(0); cpu != 0 || allocs != 0 {
		t.Errorf("zero bids: got %v, %v", cpu, allocs)
	}
}

var keep [][]byte

func TestCostBetweenLiveProcess(t *testing.T) {
	// Set-up allocations happen before the begin sample and must not
	// show in the phase's count.
	for i := 0; i < 5000; i++ {
		keep = append(keep, make([]byte, 64))
	}
	begin := processSample{CPU: processCPU(), Mallocs: mallocs()}
	for i := 0; i < 300; i++ {
		keep = append(keep, make([]byte, 64))
	}
	x := 0
	for i := 0; i < 5_000_000; i++ {
		x += i * i
	}
	end := processSample{CPU: processCPU(), Mallocs: mallocs()}
	keep = keep[:0]
	c := costBetween(begin, end)
	if c.Mallocs < 300 || c.Mallocs >= 5000 {
		t.Errorf("phase mallocs = %d, want ≥300 and well below the 5000 set-up allocations", c.Mallocs)
	}
	if c.CPU <= 0 || x == 1 {
		t.Errorf("phase CPU = %v, want > 0", c.CPU)
	}
}

func TestByteLedger(t *testing.T) {
	l := newByteLedger()
	step := func(files map[string]fileState, wantTotal int64) {
		t.Helper()
		l.observe(files)
		if l.Total != wantTotal {
			t.Fatalf("after %v: total %d, want %d", files, l.Total, wantTotal)
		}
	}
	step(map[string]fileState{"ck": {1, 1000}, "ck.wal": {2, 100}}, 1100)
	// The journal grows in place: only the growth counts.
	step(map[string]fileState{"ck": {1, 1000}, "ck.wal": {2, 400}}, 1400)
	// Nothing changed: nothing counts.
	step(map[string]fileState{"ck": {1, 1000}, "ck.wal": {2, 400}}, 1400)
	// A full snapshot renamed over the old one, same size: every byte of
	// the new file was written. The journal rotates to a fresh file
	// holding 40 bytes of survivors, rewritten too.
	step(map[string]fileState{"ck": {3, 1000}, "ck.wal": {4, 40}}, 2440)
	// The delta sidecar appears, grows, then is truncated in place and
	// restarted with a header.
	step(map[string]fileState{"ck": {3, 1000}, "ck.wal": {4, 40}, "ck.delta": {5, 300}}, 2740)
	step(map[string]fileState{"ck": {3, 1000}, "ck.wal": {4, 90}, "ck.delta": {5, 500}}, 2990)
	step(map[string]fileState{"ck": {6, 1200}, "ck.wal": {4, 90}, "ck.delta": {5, 20}}, 4210)
	want := map[string]int64{"ck": 3200, "ck.wal": 490, "ck.delta": 520}
	if !reflect.DeepEqual(l.PerFile, want) {
		t.Errorf("per file %v, want %v", l.PerFile, want)
	}
	if l.Rewrites["ck"] != 3 || l.Rewrites["ck.wal"] != 2 || l.Rewrites["ck.delta"] != 2 {
		t.Errorf("rewrites %v", l.Rewrites)
	}
	// A removed file that later reappears on the same inode counts whole.
	step(map[string]fileState{"ck": {6, 1200}}, 4210)
	step(map[string]fileState{"ck": {6, 1200}, "ck.wal": {4, 90}}, 4300)
}

func TestByteLedgerOnDisk(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, n int, appendTo bool) {
		t.Helper()
		flag := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if appendTo {
			flag = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(filepath.Join(dir, name), flag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	replace := func(name string, n int) {
		t.Helper()
		write(".tmp-"+name, n, false)
		// A snapshot taken while the temporary exists must not count it.
		l0 := newByteLedger()
		l0.observe(snapshotDir(dir, nil))
		if _, ok := l0.PerFile[".tmp-"+name]; ok {
			t.Fatalf("dot-temporary counted")
		}
		if err := os.Rename(filepath.Join(dir, ".tmp-"+name), filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	l := newByteLedger()
	written := int64(0)
	replace("checkpoint.json", 5000)
	write("checkpoint.json.wal", 64, true)
	written += 5064
	l.observe(snapshotDir(dir, nil))
	for slot := 0; slot < 6; slot++ {
		write("checkpoint.json.wal", 128, true) // acked bids
		written += 128
		l.observe(snapshotDir(dir, nil))
		replace("checkpoint.json", 5000+slot) // slot close: snapshot …
		replace("checkpoint.json.wal", 32)    // … and journal rotation
		written += 5000 + int64(slot) + 32
		l.observe(snapshotDir(dir, nil))
	}
	if l.Total != written {
		t.Errorf("ledger total %d, bytes written %d", l.Total, written)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the benchmark's:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the benchmark's:\n%v\n%v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads %v, benchmark runs %v", names, ours)
	}
}

func TestServedIDs(t *testing.T) {
	for _, w := range []workload{
		{name: "cold", nodes: 4, slots: 4, rate: 200, cold: true},
		{name: "warm", nodes: 4, slots: 4, rate: 200},
	} {
		fc, err := w.forecast(9)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := w.served(9, fc)
		if err != nil {
			t.Fatal(err)
		}
		prep := map[int]bool{}
		for _, f := range fc {
			if f.NeedsPrep {
				prep[f.ID] = true
			}
		}
		seen := map[int]bool{}
		warm, calls := 0, 0
		for i, s := range sv {
			if seen[s.ID] {
				t.Fatalf("%s: duplicate ID %d", w.name, s.ID)
			}
			seen[s.ID] = true
			if i > 0 && (s.Arrival < sv[i-1].Arrival || s.Arrival == sv[i-1].Arrival && s.ID < sv[i-1].ID) {
				t.Fatalf("%s: not in broker order at %d", w.name, i)
			}
			if w.cold && s.ID < len(fc) {
				t.Fatalf("cold: served ID %d inside the forecast's range", s.ID)
			}
			if s.NeedsPrep {
				calls++
				if prep[s.ID] {
					warm++
				}
			}
		}
		share := float64(warm) / float64(calls)
		if w.cold && share != 0 || !w.cold && share < 0.9 {
			t.Errorf("%s: warm share %.3f", w.name, share)
		}
	}
}

func TestTinyPassMatchesTwin(t *testing.T) {
	for _, w := range []workload{
		{name: "tiny-cold", nodes: 4, slots: 5, rate: 150, cold: true},
		{name: "tiny-persist", nodes: 4, slots: 5, rate: 150, persist: true},
	} {
		in, err := newInstance(w, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			p, err := runPass(in, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			twin, err := runTwin(in, p.opts)
			if err != nil {
				t.Fatal(err)
			}
			if bad, note := checkPass(p, in.served, twin); bad != 0 {
				t.Fatalf("%s traced=%v: %d failed: %s", w.name, traced, bad, note)
			}
			if p.decided != len(in.served) || len(p.decMS) != p.decided {
				t.Errorf("%s: decided %d of %d", w.name, p.decided, len(in.served))
			}
			if !traced {
				continue
			}
			if len(p.closeMS) != w.slots || len(p.serverBatchUS) != p.batches {
				t.Errorf("%s: %d closes for %d slots, %d server times for %d batches",
					w.name, len(p.closeMS), w.slots, len(p.serverBatchUS), p.batches)
			}
			if w.persist {
				if p.ledger.Rewrites[p.ckptName] == 0 || p.declogBytes == 0 || p.ledger.Total < p.declogBytes {
					t.Errorf("%s: ledger %+v, decision log %d bytes", w.name, p.ledger, p.declogBytes)
				}
			}
			rep, err := replayDecidePath(in, p.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.welfare != twin.Welfare || rep.admitted != twin.Admitted {
				t.Errorf("%s: replay welfare %v admitted %d, twin %v %d", w.name, rep.welfare, rep.admitted, twin.Welfare, twin.Admitted)
			}
		}
	}
}
