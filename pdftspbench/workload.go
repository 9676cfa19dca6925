package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// workload is one traffic mix. Every workload uses Poisson arrivals,
// medium deadlines and the hybrid A100/A40 cluster; README.md records
// why each was chosen and what it predicts.
type workload struct {
	name  string
	nodes int
	slots int
	rate  float64 // mean bids per slot
	// cold places every served ID past the forecast's IDs, so no quote
	// the broker needs was computed during calibration. Otherwise served
	// IDs are drawn from the forecast's own, keeping quotes warm.
	cold bool
	// persist turns on checkpoints (a full snapshot every fourth write,
	// binary deltas between), the per-ack fsynced journal and the binary
	// decision log.
	persist bool
	// passSeconds is one pass's load phase on the two-vCPU host the
	// sizes were chosen on; a run makes --seconds / passSeconds passes.
	passSeconds float64
}

var workloads = []workload{
	{name: "intake-burst", nodes: 4, slots: 8, rate: 8400, cold: true, passSeconds: 2.4},
	{name: "dp-wide", nodes: 32, slots: 48, rate: 300, passSeconds: 1.8},
	{name: "persist-long", nodes: 8, slots: 32, rate: 1500, persist: true, passSeconds: 2.4},
}

// passes is how many sub-seeded instances a run of the given length
// measures: a count fixed by the arguments, so one seed always sends
// the same bids.
func (w workload) passes(seconds float64) int {
	n := int(math.Round(seconds / w.passSeconds))
	if n < minPasses {
		n = minPasses
	}
	return n
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	vendors = 5
	// forecastSalt separates the calibration forecast's seed from the
	// served traffic's: the broker calibrates on traffic like, not
	// identical to, what it then serves.
	forecastSalt = 0x5eed_f0ca
)

func (w workload) traffic(seed int64) ([]task.Task, error) {
	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.Horizon = timeslot.NewHorizon(w.slots)
	tc.RatePerSlot = w.rate
	tc.Arrivals = trace.Poisson
	tc.Deadlines = trace.MediumDeadlines
	return trace.Generate(tc)
}

// forecast generates the calibration traffic for a served seed.
func (w workload) forecast(seed int64) ([]task.Task, error) {
	return w.traffic(seed ^ forecastSalt)
}

// served generates the bids the broker is sent, with IDs placed against
// the forecast's (see workload.cold), in broker order: by arrival slot,
// then by ID, the order in which a slot's round decides them.
func (w workload) served(seed int64, forecast []task.Task) ([]task.Task, error) {
	tasks, err := w.traffic(seed)
	if err != nil {
		return nil, err
	}
	next := len(forecast)
	if w.cold {
		for i := range tasks {
			tasks[i].ID += next
		}
	} else {
		// A served bid needing pre-processing takes the ID of a forecast
		// bid that also needed it (so calibration already fetched its
		// quotes); the rest take the forecast's other IDs. IDs left over
		// when one class runs out come fresh from past the forecast.
		var prep, plain []int
		for i := range forecast {
			if forecast[i].NeedsPrep {
				prep = append(prep, forecast[i].ID)
			} else {
				plain = append(plain, forecast[i].ID)
			}
		}
		for i := range tasks {
			pool := &plain
			if tasks[i].NeedsPrep {
				pool = &prep
			}
			if len(*pool) > 0 {
				tasks[i].ID = (*pool)[0]
				*pool = (*pool)[1:]
			} else {
				tasks[i].ID = next
				next++
			}
		}
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Arrival != tasks[j].Arrival {
			return tasks[i].Arrival < tasks[j].Arrival
		}
		return tasks[i].ID < tasks[j].ID
	})
	return tasks, nil
}

// stack is one wired auction: cluster, labor-vendor marketplace and
// calibrated pdFTSP scheduler.
type stack struct {
	cl    *cluster.Cluster
	mkt   *vendor.Marketplace
	sched *core.Scheduler
	model lora.ModelConfig
}

// newStack wires a fresh cluster and marketplace for the workload. With
// opts nil it calibrates the duals on the forecast (the set-up a broker
// pays); otherwise it reuses opts, which a twin calibrated on the same
// forecast would reproduce exactly.
func (w workload) newStack(seed int64, forecast []task.Task, opts *core.Options) (*stack, core.Options, error) {
	model := lora.GPT2Small()
	h := timeslot.NewHorizon(w.slots)
	var specs []cluster.Node
	add := func(n int, spec gpu.Spec) {
		specs = append(specs, cluster.Uniform(n, spec, lora.NodeCapUnits(model, spec, h), spec.MemGB)...)
	}
	add(w.nodes/2+w.nodes%2, gpu.A100)
	add(w.nodes/2, gpu.A40)
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, specs)
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("cluster: %w", err)
	}
	mkt, err := vendor.Standard(vendors, seed+7)
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("marketplace: %w", err)
	}
	var o core.Options
	if opts == nil {
		o = core.CalibrateDuals(forecast, model, cl, mkt)
	} else {
		o = *opts
	}
	sched, err := core.New(cl, o)
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("scheduler: %w", err)
	}
	return &stack{cl: cl, mkt: mkt, sched: sched, model: model}, o, nil
}

// warmQuotes fetches the forecast's quotes in calibration order, leaving
// a stack built from reused options with the quote cache a calibrated
// stack would have.
func warmQuotes(mkt *vendor.Marketplace, forecast []task.Task) {
	for i := range forecast {
		if forecast[i].NeedsPrep {
			mkt.QuotesFor(forecast[i].ID)
		}
	}
}
