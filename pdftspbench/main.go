// Command pdftspbench is the serving benchmark for pdftspd. Each run
// drives one named workload through an in-process service broker over
// loopback HTTP — batches posted with POST /v1/bids/batch?ack=1 by a
// closed loop of two clients, then POST /v1/clock/step once a slot's
// bids are all acked — checks every decision against a sequential
// sim.Run twin, and prints its metrics as one JSON line.
//
//	bash pdftspbench/run.sh --workload dp-wide --seed 3 --seconds 8 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics, measured with
// nothing but the decision stamp hooked into the broker. With --trace 1
// the run alternates untraced and traced passes and the line holds the
// per-layer metrics: server time per HTTP request, slot-close and round
// spans, persistence bytes and timings, GC work, and a call-by-call
// replay of the decide path on a twin stack. README.md documents the
// workloads and what each metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/pdftsp/pdftsp/internal/sim"
)

// metricSpec names one reported metric; the lists below must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON checks).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricSpec{
	{"throughput_bids_per_s", "bids/s", "higher"},
	{"cpu_us_per_bid", "us", "lower"},
	{"ack_p50_ms", "ms", "lower"},
	{"decision_p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"allocs_per_bid", "count", "lower"},
}

var perLayer = []metricSpec{
	{"decision_p50_ms", "ms", "lower"},
	{"trace.generate_ms", "ms", "lower"},
	{"core.calibrate_ms", "ms", "lower"},
	{"service.start_ms", "ms", "lower"},
	{"http.batch_p50_us", "us", "lower"},
	{"http.batch_p99_us", "us", "lower"},
	{"http.server_us_per_bid", "us", "lower"},
	{"http.client_us_p50", "us", "lower"},
	{"intake.held_high_water", "count", "lower"},
	{"intake.retries_per_batch", "count", "lower"},
	{"wal.fsyncs_per_batch", "count", "lower"},
	{"wal.fsync_mean_us", "us", "lower"},
	{"wal.bytes_per_bid", "bytes", "lower"},
	{"service.close_p50_ms", "ms", "lower"},
	{"service.close_max_ms", "ms", "lower"},
	{"service.round_p50_ms", "ms", "lower"},
	{"service.close_self_ms_per_slot", "ms", "lower"},
	{"service.round_covered_share", "ratio", "higher"},
	{"schedule.refill_us_per_bid", "us", "lower"},
	{"vendor.quotes_us_per_call", "us", "lower"},
	{"vendor.quotes_us_per_bid", "us", "lower"},
	{"vendor.calls_per_bid", "count", "lower"},
	{"vendor.warm_share", "ratio", "higher"},
	{"core.offer_p50_us", "us", "lower"},
	{"core.offer_p99_us", "us", "lower"},
	{"core.offer_us_per_bid", "us", "lower"},
	{"core.admit_share", "ratio", "higher"},
	{"checkpoint.full_writes", "count", "lower"},
	{"checkpoint.full_mb_last", "MB", "lower"},
	{"checkpoint.delta_bytes_per_slot", "bytes", "lower"},
	{"declog.write_us_per_bid", "us", "lower"},
	{"declog.bytes_per_bid", "bytes", "lower"},
	{"persist_bytes_per_bid", "bytes", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_total_ms", "ms", "lower"},
	{"gc.cpu_share", "ratio", "lower"},
	{"tracing.overhead_share", "ratio", "lower"},
	{"host.probe_ms", "ms", "lower"},
	{"host.steal_share", "ratio", "lower"},
	{"welfare", "units", "higher"},
	{"revenue", "units", "higher"},
	{"failed_share", "ratio", "lower"},
}

// benchDir is the benchmark's directory, relative to the checkout root.
const benchDir = "pdftspbench"

// minPasses is the fewest load phases a run measures, each on its own
// sub-seeded instance of the workload.
const minPasses = 3

type value struct {
	V float64
	N int // samples behind V; 0 for a ratio of totals
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: intake-burst, dp-wide or persist-long")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "load-phase seconds to measure, in whole passes (at least 3)")
	traced := flag.Int("trace", 0, "1 = per-layer run (alternating untraced and traced passes)")
	flag.Parse()
	// Runs from the checkout root; persistent state goes under .bench_build.
	if err := run(*name, *seed, *seconds, *traced == 1, "."); err != nil {
		fmt.Fprintf(os.Stderr, "pdftspbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, root string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return err
	}
	ticks0 := readCPUTicks()
	host := newHostRecord(root, filepath.Join(root, benchDir))
	stateRoot := filepath.Join(root, ".bench_build", "state")
	if w.persist {
		if err := os.MkdirAll(stateRoot, 0o755); err != nil {
			return err
		}
	}
	n := w.passes(seconds)
	fmt.Printf("workload %s seed %d: %d passes of ~%.0f bids over %d slots on %d nodes (%d conns, batch %d, trace %v)\n",
		w.name, seed, n, w.rate*float64(w.slots)*0.85, w.slots, w.nodes, conns, batchSize, traced)

	var (
		plain, tracedPasses []*pass
		attempted, failed   int
		welfare, revenue    float64
		bids, admitted      int
	)
	check := func(i int, p *pass, in *instance, twin *sim.Result) {
		bad, note := checkPass(p, in.served, twin)
		attempted += p.attempted
		failed += bad
		if bad > 0 {
			fmt.Printf("pass %d: %d failed bids: %s\n", i+1, bad, note)
		}
		printPass(i+1, in.seed, p)
		p.broker = nil // release the broker before the next pass
	}
	for i := 0; i < n; i++ {
		in, err := newInstance(w, subSeed(seed, i), stateRoot)
		if err != nil {
			return err
		}
		p, err := runPass(in, false)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
		twin, err := runTwin(in, p.opts)
		if err != nil {
			return fmt.Errorf("twin %d: %w", i+1, err)
		}
		check(i, p, in, twin)
		plain = append(plain, p)
		welfare += twin.Welfare
		revenue += twin.Revenue
		admitted += twin.Admitted
		bids += len(in.served)
		if !traced {
			continue
		}
		tp, err := runPass(in, true)
		if err != nil {
			return fmt.Errorf("traced pass %d: %w", i+1, err)
		}
		if tp.replay, err = replayDecidePath(in, tp.opts); err != nil {
			return fmt.Errorf("replay %d: %w", i+1, err)
		}
		if tp.replay.welfare != twin.Welfare || tp.replay.admitted != twin.Admitted {
			return fmt.Errorf("replay %d: welfare %v admitted %d, twin %v %d", i+1,
				tp.replay.welfare, tp.replay.admitted, twin.Welfare, twin.Admitted)
		}
		check(i, tp, in, twin)
		tracedPasses = append(tracedPasses, tp)
	}
	host.StealShare = stealShare(ticks0, readCPUTicks())
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("welfare %.6f revenue %.6f admitted %d of %d bids (sum over the %d sub-seeded instances)\n",
		welfare, revenue, admitted, bids, n)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	if failed > 0 {
		printResult(res)
		return fmt.Errorf("%d of %d bids failed the twin check", failed, attempted)
	}
	vals, specs := endToEndMetrics(plain), endToEnd
	if traced {
		fmt.Println("untraced passes, end to end:")
		printTable(endToEnd, vals)
		fmt.Println("traced passes, end to end (not gated):")
		printTable(endToEnd, endToEndMetrics(tracedPasses))
		e2e := vals
		vals, specs = layerMetrics(tracedPasses, plain, host), perLayer
		vals["decision_p50_ms"] = e2e["decision_p50_ms"]
		vals["welfare"] = value{welfare, n}
		vals["revenue"] = value{revenue, n}
		vals["core.admit_share"] = value{float64(admitted) / float64(bids), bids}
		vals["failed_share"] = value{float64(failed) / float64(attempted), attempted}
	}
	printTable(specs, vals)
	for _, s := range specs {
		res.Metrics[s.Name] = map[string]any{"value": vals[s.Name].V, "unit": s.Unit}
	}
	printResult(res)
	return nil
}

// subSeed derives the seed of a run's i-th workload instance. Every pass
// serves its own instance, so one run averages over several draws of
// the workload rather than timing one draw several times.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func printResult(res result) {
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func printPass(i int, seed int64, p *pass) {
	kind := "untraced"
	if p.traced {
		kind = "traced"
	}
	cpu, allocs := p.cost.perBid(p.decided)
	fmt.Printf("pass %d (%s, seed %d): setup %.3fs load %.3fs %.0f bids/s cpu %.2fus/bid allocs %.1f/bid heap %.1fMB ack p50 %.3fms decision p50 %.2fms p99 %.2fms welfare %.4f revenue %.4f\n",
		i, kind, seed, p.setup().Seconds(), p.wall.Seconds(), float64(p.decided)/p.wall.Seconds(),
		cpu, allocs, p.heapLive, nearestRank(p.ackMS, 0.5).Value, nearestRank(p.decMS, 0.5).Value,
		nearestRank(p.decMS, 0.99).Value, p.status.Welfare, p.status.Revenue)
}

// printTable prints the named metrics with units and sample counts.
func printTable(specs []metricSpec, vals map[string]value) {
	for _, s := range specs {
		v := vals[s.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Printf("  %-32s %14.4f %-7s%s\n", s.Name, v.V, s.Unit, n)
	}
}

// endToEndMetrics takes each metric's median over the passes; a
// percentile's sample count is the per-pass count times the passes.
func endToEndMetrics(ps []*pass) map[string]value {
	col := func(f func(p *pass) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		return median(vs)
	}
	count := func(f func(p *pass) int) int {
		n := 0
		for _, p := range ps {
			n += f(p)
		}
		return n
	}
	bids := count(func(p *pass) int { return p.decided })
	return map[string]value{
		"throughput_bids_per_s": {col(func(p *pass) float64 { return float64(p.decided) / p.wall.Seconds() }), bids},
		"cpu_us_per_bid":        {col(func(p *pass) float64 { cpu, _ := p.cost.perBid(p.decided); return cpu }), bids},
		"ack_p50_ms":            {col(func(p *pass) float64 { return nearestRank(p.ackMS, 0.5).Value }), count(func(p *pass) int { return len(p.ackMS) })},
		"decision_p50_ms":       {col(func(p *pass) float64 { return nearestRank(p.decMS, 0.5).Value }), count(func(p *pass) int { return len(p.decMS) })},
		"decision_p99_ms":       {col(func(p *pass) float64 { return nearestRank(p.decMS, 0.99).Value }), count(func(p *pass) int { return len(p.decMS) })},
		"setup_s":               {col(func(p *pass) float64 { return p.setup().Seconds() }), len(ps)},
		"heap_live_mb":          {col(func(p *pass) float64 { return p.heapLive }), len(ps)},
		"allocs_per_bid":        {col(func(p *pass) float64 { _, a := p.cost.perBid(p.decided); return a }), bids},
	}
}

// layerMetrics assembles the per-layer view: medians over the traced
// passes, totals of their decide-path replays, and the host record.
func layerMetrics(tr, plain []*pass, host hostRecord) map[string]value {
	all := append(append([]*pass(nil), plain...), tr...)
	med := func(ps []*pass, f func(p *pass) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		return median(vs)
	}
	pooled := func(f func(p *pass) []float64, q float64) value {
		var s []float64
		for _, p := range tr {
			s = append(s, f(p)...)
		}
		pc := nearestRank(s, q)
		return value{pc.Value, pc.N}
	}
	total := func(f func(p *pass) float64) float64 {
		t := 0.0
		for _, p := range tr {
			t += f(p)
		}
		return t
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	bids := int(total(func(p *pass) float64 { return float64(p.decided) }))
	batches := total(func(p *pass) float64 { return float64(p.batches) })
	slots := total(func(p *pass) float64 { return float64(len(p.closeMS)) })
	perBid := func(f func(p *pass) float64) value { return value{total(f) / float64(bids), bids} }
	n := len(tr)

	v := map[string]value{}
	v["trace.generate_ms"] = value{med(all, func(p *pass) float64 { return ms(p.genT) }), len(all)}
	v["core.calibrate_ms"] = value{med(all, func(p *pass) float64 { return ms(p.calibT) }), len(all)}
	v["service.start_ms"] = value{med(all, func(p *pass) float64 { return ms(p.startT) }), len(all)}
	v["http.batch_p50_us"] = pooled(func(p *pass) []float64 { return p.serverBatchUS }, 0.5)
	v["http.batch_p99_us"] = pooled(func(p *pass) []float64 { return p.serverBatchUS }, 0.99)
	v["http.server_us_per_bid"] = perBid(func(p *pass) float64 { return sum(p.serverBatchUS) })
	v["http.client_us_p50"] = pooled(func(p *pass) []float64 { return p.clientOnlyUS }, 0.5)
	v["intake.held_high_water"] = value{med(tr, func(p *pass) float64 { return float64(p.status.HeldHighWater) }), n}
	v["intake.retries_per_batch"] = value{total(func(p *pass) float64 { return float64(p.retries) }) / batches, int(batches)}
	fsyncs := total(func(p *pass) float64 { return float64(p.status.WALFsyncs) })
	v["wal.fsyncs_per_batch"] = value{fsyncs / batches, int(batches)}
	if fsyncs > 0 {
		v["wal.fsync_mean_us"] = value{total(func(p *pass) float64 { return float64(p.status.WALFsyncNanos) }) / fsyncs / 1e3, int(fsyncs)}
	}
	v["wal.bytes_per_bid"] = perBid(func(p *pass) float64 { return float64(p.status.WALBytes) })
	v["service.close_p50_ms"] = pooled(func(p *pass) []float64 { return p.closeMS }, 0.5)
	v["service.close_max_ms"] = pooled(func(p *pass) []float64 { return p.closeMS }, 1)
	v["service.round_p50_ms"] = pooled(func(p *pass) []float64 { return p.roundMS }, 0.5)
	roundMS := total(func(p *pass) float64 { return sum(p.roundMS) })
	v["service.close_self_ms_per_slot"] = value{(total(func(p *pass) float64 { return sum(p.closeMS) }) - roundMS) / slots, int(slots)}
	replay := func(f func(r *decideReplay) time.Duration) float64 {
		return total(func(p *pass) float64 { return us(f(p.replay)) })
	}
	refill := replay(func(r *decideReplay) time.Duration { return r.refill })
	quotes := replay(func(r *decideReplay) time.Duration { return r.quotes })
	offer := replay(func(r *decideReplay) time.Duration { return r.offer })
	v["service.round_covered_share"] = value{(refill + quotes + offer) / (roundMS * 1e3), bids}
	v["schedule.refill_us_per_bid"] = value{refill / float64(bids), bids}
	calls := total(func(p *pass) float64 { return float64(p.replay.quoteCalls) })
	if calls > 0 {
		v["vendor.quotes_us_per_call"] = value{quotes / calls, int(calls)}
		v["vendor.warm_share"] = value{total(func(p *pass) float64 { return float64(p.replay.warmCalls) }) / calls, int(calls)}
	}
	v["vendor.quotes_us_per_bid"] = value{quotes / float64(bids), bids}
	v["vendor.calls_per_bid"] = value{calls / float64(bids), bids}
	v["core.offer_p50_us"] = pooled(func(p *pass) []float64 { return p.replay.offerUS }, 0.5)
	v["core.offer_p99_us"] = pooled(func(p *pass) []float64 { return p.replay.offerUS }, 0.99)
	v["core.offer_us_per_bid"] = value{offer / float64(bids), bids}
	if tr[0].ledger != nil {
		ck := tr[0].ckptName
		v["checkpoint.full_writes"] = value{med(tr, func(p *pass) float64 { return float64(p.ledger.Rewrites[ck]) }), n}
		v["checkpoint.full_mb_last"] = value{med(tr, func(p *pass) float64 { return float64(p.ledger.size(ck)) / (1 << 20) }), n}
		v["checkpoint.delta_bytes_per_slot"] = value{total(func(p *pass) float64 { return float64(p.ledger.PerFile[ck+".delta"]) }) / slots, int(slots)}
		v["persist_bytes_per_bid"] = perBid(func(p *pass) float64 { return float64(p.ledger.Total) })
		v["declog.write_us_per_bid"] = perBid(func(p *pass) float64 { return us(p.declogBusy) })
		v["declog.bytes_per_bid"] = perBid(func(p *pass) float64 { return float64(p.declogBytes) })
	}
	v["gc.cycles"] = value{med(tr, func(p *pass) float64 { return float64(p.gc.Cycles) }), n}
	v["gc.pause_total_ms"] = value{med(tr, func(p *pass) float64 { return ms(p.gc.Pause) }), n}
	v["gc.cpu_share"] = value{total(func(p *pass) float64 { return float64(p.gc.CPU) }) / total(func(p *pass) float64 { return float64(p.cost.CPU) }), n}
	// Each traced pass reruns the untraced pass before it on the same
	// instance, so the pairs' CPU ratios isolate the tracing cost.
	over := make([]float64, n)
	for i, p := range tr {
		c, _ := p.cost.perBid(p.decided)
		base, _ := plain[i].cost.perBid(plain[i].decided)
		over[i] = c/base - 1
	}
	v["tracing.overhead_share"] = value{median(over), n}
	v["host.probe_ms"] = value{host.ProbeMS, 5}
	v["host.steal_share"] = value{host.StealShare, 0}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
