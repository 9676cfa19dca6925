package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostRecord is written with every run so that two sets of runs that
// disagree can be traced to the machine rather than to the code.
type hostRecord struct {
	ProbeMS    float64 `json:"host.probe_ms"`
	StealShare float64 `json:"host.steal_share"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// probeSink keeps the probe's result live so the compiler cannot drop
// the loop.
var probeSink uint64

// hostProbe times a fixed CPU-and-map loop built from the standard
// library only, five times, and returns the median in milliseconds. Its
// input never changes, so a moving value means the host moved.
func hostProbe() float64 {
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		m := make(map[uint64]uint64, 1<<14)
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 400_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x&0x3fff] += x
		}
		buf := make([]byte, 1<<20)
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		sum := sha256.Sum256(buf)
		probeSink += m[1] + uint64(sum[0])
		times[r] = float64(time.Since(start).Microseconds()) / 1e3
	}
	return median(times)
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so it is not added twice.
	for i := 1; i <= 8 && i < len(fields); i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the host's CPU ticks between two readings
// that the hypervisor gave to other guests.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sourceCommit names the code under test: the VCS revision stamped into
// the binary when it was built inside a git checkout, else a digest of
// the module's Go sources (the benchmark's own directory excluded).
func sourceCommit(root, self string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || p == self) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func newHostRecord(root, self string) hostRecord {
	return hostRecord{
		ProbeMS:    hostProbe(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceCommit(root, self),
	}
}
