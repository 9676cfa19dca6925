package main

import (
	"fmt"
	"time"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// runTwin replays the instance's bids through a sequential sim.Run on a
// stack wired like the broker's (opts is the broker's calibration): the
// behavioural spec every pass must match bit for bit.
func runTwin(in *instance, opts core.Options) (*sim.Result, error) {
	stk, _, err := in.w.newStack(in.seed, nil, &opts)
	if err != nil {
		return nil, err
	}
	return sim.Run(stk.cl, stk.sched, in.served, sim.Config{
		Model: stk.model, Market: stk.mkt, CollectDecisions: true,
	})
}

// checkPass diffs a drained pass's broker against the twin and returns
// the bids that failed: shed or refused at intake, never decided, or
// decided differently from the twin. An accounting mismatch with every
// decision equal still fails one. The first difference is described.
func checkPass(p *pass, served []task.Task, twin *sim.Result) (int, string) {
	failed := p.shed + p.refused
	note := ""
	if failed > 0 {
		note = fmt.Sprintf("%d bids shed, %d refused at intake", p.shed, p.refused)
	}
	for i := range served {
		want := &twin.Decisions[i]
		got, ok, _ := p.broker.DecisionFor(served[i].ID)
		var msg string
		if !ok {
			msg = fmt.Sprintf("task %d undecided", served[i].ID)
		} else {
			msg = sim.DiffDecisions(&got, want, false)
		}
		if msg != "" {
			failed++
			if note == "" {
				note = msg
			}
		}
	}
	if msg := sim.DiffResults(p.broker.Result(), twin); msg != "" {
		if failed == 0 {
			failed = 1
		}
		if note == "" {
			note = "accounting: " + msg
		}
	}
	return failed, note
}

// decideReplay is the broker's per-bid decide path, timed call by call
// on its own twin stack: TaskEnv.Refill, Marketplace.QuotesFor and
// Scheduler.Offer, in broker order.
type decideReplay struct {
	refill, quotes, offer time.Duration
	offerUS               []float64
	quoteCalls, warmCalls int
	admitted              int
	welfare               float64
}

func replayDecidePath(in *instance, opts core.Options) (*decideReplay, error) {
	forecast, err := in.w.forecast(in.seed)
	if err != nil {
		return nil, err
	}
	stk, _, err := in.w.newStack(in.seed, forecast, &opts)
	if err != nil {
		return nil, err
	}
	served := in.served
	warmQuotes(stk.mkt, forecast)
	quoted := make(map[int]bool, len(forecast))
	for i := range forecast {
		if forecast[i].NeedsPrep {
			quoted[forecast[i].ID] = true
		}
	}
	r := &decideReplay{offerUS: make([]float64, 0, len(served))}
	res := sim.NewResult(stk.sched.Name())
	var env schedule.TaskEnv
	for i := range served {
		t := &served[i]
		t0 := time.Now()
		env.Refill(t, stk.cl, stk.model, nil)
		t1 := time.Now()
		if t.NeedsPrep {
			env.Quotes = stk.mkt.QuotesFor(t.ID)
			r.quoteCalls++
			if quoted[t.ID] {
				r.warmCalls++
			}
		}
		t2 := time.Now()
		d := stk.sched.Offer(&env)
		t3 := time.Now()
		res.Account(&env, &d)
		r.refill += t1.Sub(t0)
		r.quotes += t2.Sub(t1)
		r.offer += t3.Sub(t2)
		r.offerUS = append(r.offerUS, float64(t3.Sub(t2))/1e3)
	}
	r.admitted, r.welfare = res.Admitted, res.Welfare
	return r, nil
}
