package main

import (
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Percentile is one nearest-rank order statistic together with the
// number of samples it was taken from.
type Percentile struct {
	Value float64
	N     int
}

// nearestRank returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank definition: the ceil(q·n)-th smallest sample. It sorts
// samples in place. An empty sample set yields {0, 0}.
func nearestRank(samples []float64, q float64) Percentile {
	n := len(samples)
	if n == 0 {
		return Percentile{}
	}
	sort.Float64s(samples)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return Percentile{Value: samples[i], N: n}
}

// median is the middle of the values (the mean of the two middle ones
// for an even count); it does not modify its argument.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// processSample is what the process has consumed up to one instant:
// CPU time (user + system, all threads) and heap allocations.
type processSample struct {
	CPU     time.Duration
	Mallocs uint64
}

// phaseCost is a load phase's share of the process's consumption.
type phaseCost struct {
	CPU     time.Duration
	Mallocs uint64
}

// costBetween subtracts the sample taken when a phase began from the one
// taken when it ended, so work done before the phase (set-up, twin
// replay, earlier passes) is never charged to it.
func costBetween(begin, end processSample) phaseCost {
	return phaseCost{CPU: end.CPU - begin.CPU, Mallocs: end.Mallocs - begin.Mallocs}
}

// perBid divides a phase's cost by the bids it decided; zero bids cost
// nothing rather than dividing by zero.
func (c phaseCost) perBid(decided int) (cpuUS, allocs float64) {
	if decided <= 0 {
		return 0, 0
	}
	return float64(c.CPU.Microseconds()) / float64(decided), float64(c.Mallocs) / float64(decided)
}

// processCPU reads the process's user + system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fileState identifies one version of a file: a rename over the path
// gives a new inode, an in-place truncate a smaller size.
type fileState struct {
	Inode uint64
	Size  int64
}

// byteLedger totals the bytes a process wrote to a set of files, from
// snapshots of their inodes and sizes. A file seen for the first time,
// replaced by a rename, or truncated counts its whole current size (it
// was written anew); a file that grew in place counts only the growth.
// A file that disappears adds nothing. Snapshots must be taken at least
// once between two rewrites of the same file, or the earlier rewrite
// is missed.
type byteLedger struct {
	seen  map[string]fileState
	Total int64
	// PerFile accumulates the same total split by file name.
	PerFile map[string]int64
	// Rewrites counts whole-file writes per name (first sight included).
	Rewrites map[string]int
}

func newByteLedger() *byteLedger {
	return &byteLedger{seen: map[string]fileState{}, PerFile: map[string]int64{}, Rewrites: map[string]int{}}
}

// observe folds one snapshot (file name → state) into the ledger.
func (l *byteLedger) observe(files map[string]fileState) {
	for name, now := range files {
		prev, ok := l.seen[name]
		var add int64
		switch {
		case !ok || now.Inode != prev.Inode || now.Size < prev.Size:
			add = now.Size
			l.Rewrites[name]++
		default:
			add = now.Size - prev.Size
		}
		l.Total += add
		l.PerFile[name] += add
		l.seen[name] = now
	}
	for name := range l.seen {
		if _, ok := files[name]; !ok {
			delete(l.seen, name)
		}
	}
}

// size is the last observed size of a file, 0 if it was never seen.
func (l *byteLedger) size(name string) int64 { return l.seen[name].Size }

// snapshotDir stats every regular file directly inside dir, skipping
// the names in skip and dot-files: the broker stages its rewrites in
// dot-prefixed temporaries and renames them into place, so counting a
// temporary would count its bytes twice.
func snapshotDir(dir string, skip map[string]bool) map[string]fileState {
	out := map[string]fileState{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range ents {
		if skip[e.Name()] || strings.HasPrefix(e.Name(), ".") || !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		st, ok := fi.Sys().(*syscall.Stat_t)
		if !ok {
			continue
		}
		out[e.Name()] = fileState{Inode: st.Ino, Size: fi.Size()}
	}
	return out
}
