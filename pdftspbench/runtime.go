package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// liveHeap collects garbage and returns the heap still in use. It
// collects twice: objects parked in a sync.Pool survive the first
// cycle in the pool's victim cache and are only freed by the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// gcDelta is the garbage collector's work over one phase.
type gcDelta struct {
	Cycles uint64
	Pause  time.Duration
	CPU    time.Duration
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readGC() gcDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(gcCPUSample)
	var cpu time.Duration
	if v := gcCPUSample[0].Value; v.Kind() == metrics.KindFloat64 {
		cpu = time.Duration(v.Float64() * 1e9)
	}
	return gcDelta{Cycles: uint64(m.NumGC), Pause: time.Duration(m.PauseTotalNs), CPU: cpu}
}

func (g gcDelta) sub(base gcDelta) gcDelta {
	return gcDelta{Cycles: g.Cycles - base.Cycles, Pause: g.Pause - base.Pause, CPU: g.CPU - base.CPU}
}
