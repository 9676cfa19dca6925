package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/task"
)

const (
	// conns is the closed loop's client count: each keeps one batch in
	// flight. It matches the two vCPUs the workloads were sized on.
	conns = 2
	// batchSize is bids per POST /v1/bids/batch.
	batchSize = 64
	// maxRetries bounds a batch's 429 retries before its bids count as
	// shed (and the run as failed).
	maxRetries = 8
)

// batch is one pre-encoded POST body and the range of served bids it
// carries (served[first : first+n]).
type batch struct {
	body     []byte
	first, n int
}

// encodeBatches turns the served bids into per-slot request bodies once
// per run, so the load phase times the broker, not the client's JSON
// encoder.
func encodeBatches(served []task.Task, slots int) ([][]batch, error) {
	perSlot := make([][]batch, slots)
	for i := 0; i < len(served); {
		slot := served[i].Arrival
		j := i
		for j < len(served) && j-i < batchSize && served[j].Arrival == slot {
			j++
		}
		reqs := make([]service.BidRequest, j-i)
		for k := range reqs {
			t := &served[i+k]
			reqs[k] = service.BidRequest{
				ID: &t.ID, Arrival: &t.Arrival, Deadline: t.Deadline,
				Work: t.Work, MemGB: t.MemGB, Bid: t.Bid, NeedsPrep: t.NeedsPrep,
				Rank: t.Rank, Batch: t.Batch,
				DatasetSamples: t.DatasetSamples, Epochs: t.Epochs, ModelName: t.ModelName,
			}
		}
		body, err := json.Marshal(reqs)
		if err != nil {
			return nil, err
		}
		perSlot[slot] = append(perSlot[slot], batch{body: body, first: i, n: j - i})
		i = j
	}
	return perSlot, nil
}

// stamper is the broker observer every pass installs: it stamps each
// decision (the broker calls it on its core goroutine) and, when
// traced, the first bid and last outcome of the round in progress.
type stamper struct {
	obs.Base
	epoch   time.Time
	decided []int64 // ns since epoch by task ID; 0 = undecided
	traced  bool
	first   atomic.Int64
	last    atomic.Int64
}

func (s *stamper) OnBid(*obs.BidEvent) {
	if s.traced && s.first.Load() == 0 {
		s.first.Store(int64(time.Since(s.epoch)))
	}
}

func (s *stamper) OnOutcome(e *obs.OutcomeEvent) {
	now := int64(time.Since(s.epoch))
	s.decided[e.TaskID] = now
	if s.traced {
		s.last.Store(now)
	}
}

// takeRound returns and resets the current round's span in ns.
func (s *stamper) takeRound() (int64, bool) {
	first, last := s.first.Swap(0), s.last.Swap(0)
	if first == 0 || last < first {
		return 0, false
	}
	return last - first, true
}

// serverTimer wraps the broker's HTTP handler and records how long the
// handler held each request: per batch (by the client's sequence
// header) and per clock step.
type serverTimer struct {
	next  http.Handler
	mu    sync.Mutex
	batch map[int]time.Duration
	steps []time.Duration
}

const seqHeader = "X-Bench-Seq"

func (t *serverTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.URL.Path == "/v1/clock/step" {
		t.steps = append(t.steps, d)
	} else if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil {
		t.batch[seq] = d
	}
}

// timedWriter is the decision log's sink in a traced pass: it counts the
// time and bytes of every write the log's buffer flushes to the file.
type timedWriter struct {
	w     io.Writer
	busy  time.Duration
	bytes int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.busy += time.Since(start)
	t.bytes += int64(n)
	return n, err
}

// instance is one sub-seeded draw of a workload: the bids every pass on
// it sends, pre-encoded.
type instance struct {
	w         workload
	seed      int64
	served    []task.Task
	batches   [][]batch
	maxID     int
	stateRoot string
}

// pass is one measured load phase on a freshly set-up broker.
type pass struct {
	traced bool

	// Set-up.
	genT, calibT, startT time.Duration
	opts                 core.Options

	// Load phase.
	wall      time.Duration
	cost      phaseCost
	attempted int
	decided   int
	shed      int
	refused   int
	retries   int
	batches   int
	ackMS     []float64
	decMS     []float64
	heapLive  float64 // MiB the broker's state holds after the phase
	status    service.Status
	broker    *service.Broker

	// Traced only.
	serverBatchUS []float64
	clientOnlyUS  []float64
	closeMS       []float64
	roundMS       []float64
	ledger        *byteLedger
	ckptName      string
	declogBusy    time.Duration
	declogBytes   int64
	gc            gcDelta
	replay        *decideReplay
}

func (p *pass) setup() time.Duration { return p.genT + p.calibT + p.startT }

// runPass sets up a broker, drives the whole workload through it over
// loopback HTTP, and leaves it drained for the correctness check.
func runPass(in *instance, traced bool) (*pass, error) {
	p := &pass{traced: traced}
	st := &stamper{decided: make([]int64, in.maxID+1), traced: traced}
	submitted := make([]int64, in.maxID+1)
	var stateDir string
	if in.w.persist {
		var err error
		if stateDir, err = os.MkdirTemp(in.stateRoot, in.w.name+"-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(stateDir)
	}
	heapBase := liveHeap()

	// Set-up: forecast, calibration, broker start, listener.
	t0 := time.Now()
	forecast, err := in.w.forecast(in.seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	stk, opts, err := in.w.newStack(in.seed, forecast, nil)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	sopts := service.Options{
		Cluster:         stk.cl,
		Scheduler:       stk.sched,
		Model:           stk.model,
		Market:          stk.mkt,
		QueueSize:       maxSlotBids(in.served, in.w.slots) + conns*batchSize + 16,
		VirtualClock:    true,
		RunLabel:        "pdftspbench",
		DropLosingPlans: true,
	}
	var (
		declog  *obs.DecisionLog
		logFile *os.File
		logSink *timedWriter
	)
	observers := []obs.Observer{st}
	if in.w.persist {
		ckpt := filepath.Join(stateDir, "checkpoint.json")
		p.ckptName = filepath.Base(ckpt)
		sopts.CheckpointPath = ckpt
		sopts.CheckpointFullEvery = 4
		sopts.WALPath = service.WALPath(ckpt)
		sopts.WALSyncEvery = 1
		if logFile, err = os.Create(filepath.Join(stateDir, "decisions.bin")); err != nil {
			return nil, err
		}
		defer logFile.Close()
		var sink io.Writer = logFile
		if traced {
			logSink = &timedWriter{w: logFile}
			sink = logSink
		}
		declog = obs.NewDecisionLog(sink)
		observers = append(observers, declog)
	}
	sopts.Observer = obs.Multi(observers...)
	b, err := service.New(sopts)
	if err != nil {
		return nil, err
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	p.broker = b
	var handler http.Handler = b.Handler()
	var timer *serverTimer
	if traced {
		timer = &serverTimer{next: handler, batch: map[int]time.Duration{}}
		handler = timer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Kill()
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	t3 := time.Now()
	p.genT, p.calibT, p.startT = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	// The broker keeps none of the forecast; dropping it keeps the
	// benchmark's copy out of heap_live_mb. Twins regenerate it.
	p.opts, forecast = opts, nil

	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	cl := &client{http: &http.Client{Transport: tr}, base: "http://" + ln.Addr().String()}
	defer func() {
		srv.Close()
		<-served
		tr.CloseIdleConnections()
	}()

	var ledger *byteLedger
	if traced && stateDir != "" {
		ledger = newByteLedger()
	}
	var clientRTT map[int]time.Duration
	if traced {
		clientRTT = map[int]time.Duration{}
	}

	runtime.GC()
	gc0 := readGC()
	begin := processSample{CPU: processCPU(), Mallocs: mallocs()}
	st.epoch = time.Now()
	start := st.epoch
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	jobs := make(chan int)
	var seqBatch []batch
	for _, bs := range in.batches {
		seqBatch = append(seqBatch, bs...)
	}
	for c := 0; c < conns; c++ {
		go func() {
			for seq := range jobs {
				bt := seqBatch[seq]
				now := int64(time.Since(st.epoch))
				for i := bt.first; i < bt.first+bt.n; i++ {
					submitted[in.served[i].ID] = now
				}
				r := cl.postBatch(bt.body, seq)
				mu.Lock()
				p.ackMS = append(p.ackMS, float64(r.rtt)/1e6)
				p.retries += r.retries
				if r.shed {
					p.shed += bt.n
				}
				p.refused += r.refused
				if clientRTT != nil {
					clientRTT[seq] = r.rtt
				}
				if r.err != nil && firstErr == nil {
					firstErr = r.err
				}
				mu.Unlock()
				wg.Done()
			}
		}()
	}
	seq := 0
	for slot := 0; slot < in.w.slots; slot++ {
		for range in.batches[slot] {
			wg.Add(1)
			jobs <- seq
			seq++
		}
		wg.Wait()
		if firstErr != nil {
			break
		}
		if ledger != nil {
			ledger.observe(snapshotDir(stateDir, nil))
		}
		if err := cl.step(); err != nil {
			firstErr = err
			break
		}
		if traced {
			if span, ok := st.takeRound(); ok {
				p.roundMS = append(p.roundMS, float64(span)/1e6)
			}
		}
		if ledger != nil {
			ledger.observe(snapshotDir(stateDir, nil))
		}
	}
	close(jobs)
	p.wall = time.Since(start)
	end := processSample{CPU: processCPU(), Mallocs: mallocs()}
	p.gc = readGC().sub(gc0)
	p.cost = costBetween(begin, end)
	p.batches = seq
	if firstErr != nil {
		b.Kill()
		return nil, firstErr
	}

	p.heapLive = float64(liveHeap()-heapBase) / (1 << 20)
	if p.status, err = b.Status(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if declog != nil {
		if err := declog.Close(); err != nil {
			return nil, fmt.Errorf("decision log: %w", err)
		}
		if err := logFile.Close(); err != nil {
			return nil, fmt.Errorf("decision log: %w", err)
		}
	}

	p.attempted = len(in.served)
	for i := range in.served {
		id := in.served[i].ID
		d := st.decided[id]
		if d == 0 {
			continue // checkPass reports it
		}
		p.decided++
		p.decMS = append(p.decMS, float64(d-submitted[id])/1e6)
	}
	if traced {
		timer.mu.Lock()
		defer timer.mu.Unlock()
		for s, rtt := range clientRTT {
			srvT, ok := timer.batch[s]
			if !ok {
				continue
			}
			p.serverBatchUS = append(p.serverBatchUS, float64(srvT)/1e3)
			p.clientOnlyUS = append(p.clientOnlyUS, float64(rtt-srvT)/1e3)
		}
		for _, d := range timer.steps {
			p.closeMS = append(p.closeMS, float64(d)/1e6)
		}
		p.ledger = ledger
		if logSink != nil {
			p.declogBusy, p.declogBytes = logSink.busy, logSink.bytes
		}
	}
	return p, nil
}

func newInstance(w workload, seed int64, stateRoot string) (*instance, error) {
	forecast, err := w.forecast(seed)
	if err != nil {
		return nil, err
	}
	served, err := w.served(seed, forecast)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, seed: seed, served: served, stateRoot: stateRoot}
	for i := range served {
		if served[i].ID > in.maxID {
			in.maxID = served[i].ID
		}
	}
	if in.batches, err = encodeBatches(served, w.slots); err != nil {
		return nil, err
	}
	return in, nil
}

func maxSlotBids(served []task.Task, slots int) int {
	counts := make([]int, slots)
	most := 0
	for i := range served {
		counts[served[i].Arrival]++
		if c := counts[served[i].Arrival]; c > most {
			most = c
		}
	}
	return most
}

type client struct {
	http *http.Client
	base string
}

type batchResult struct {
	rtt     time.Duration
	retries int
	shed    bool
	refused int
	err     error
}

var errMarker = []byte(`"error"`)

// postBatch submits one body and waits for its ack, retrying a 429 with
// a short backoff: the virtual-clock broker frees queue space at the
// next slot close.
func (c *client) postBatch(body []byte, seq int) batchResult {
	var r batchResult
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, c.base+"/v1/bids/batch?ack=1", bytes.NewReader(body))
		if err != nil {
			r.err = err
			return r
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(seqHeader, strconv.Itoa(seq))
		start := time.Now()
		resp, err := c.http.Do(req)
		if err != nil {
			r.err = err
			return r
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.rtt = time.Since(start)
		if err != nil {
			r.err = err
			return r
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			if attempt >= maxRetries {
				r.shed = true
				return r
			}
			r.retries++
			time.Sleep(time.Duration(2<<attempt) * time.Millisecond)
			continue
		case resp.StatusCode != http.StatusOK:
			r.err = fmt.Errorf("batch POST: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
			return r
		}
		if bytes.Contains(out, errMarker) {
			var verdicts []struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(out, &verdicts); err != nil {
				r.err = fmt.Errorf("batch ack: %w", err)
				return r
			}
			for _, v := range verdicts {
				if v.Error != "" {
					r.refused++
				}
			}
		}
		return r
	}
}

var stepBody = []byte(`{"slots":1}`)

func (c *client) step() error {
	resp, err := c.http.Post(c.base+"/v1/clock/step", "application/json", bytes.NewReader(stepBody))
	if err != nil {
		return err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errors.New("clock step: HTTP " + strconv.Itoa(resp.StatusCode) + ": " + string(bytes.TrimSpace(out)))
	}
	return nil
}
