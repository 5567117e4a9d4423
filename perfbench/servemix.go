package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"

	"occamy"
	"occamy/internal/serve"
	"occamy/internal/workload"
)

// The serve-mix job list, in dispatch order: the longest job kinds first.
// Every spec in a pass is distinct, so no submission coalesces onto another.
const (
	serveTraffic   = 12 // overload traffic jobs with tenant churn
	serveCampaigns = 24 // fault campaigns over serveWarmKeys warm-ups
	serveWarmKeys  = 4
	serveFarMem    = 20 // pair jobs on the far-memory machine
	servePairs     = 64 // pair jobs on the Table 4 machine
	serveScale     = 0.25
)

// serveTrafficSpec is sized below its maxtasks cap, so no arrival is
// truncated.
const serveTrafficSpec = "poisson:load=2,tenants=4,cores=4,horizon=12000,slice=500,elems=256,repeats=1,churn=1800:2600,maxtasks=1024,seed=%d"

// farMemory is the latency-dominated memory system of the engine
// skip-ahead benchmark: 600-cycle DRAM at 2 B/cycle.
var farMemory = &occamy.MachineTuning{DRAMLatencyCycles: 600, DRAMBytesPerCycle: 2}

// serveMix drives an in-process job service over loopback HTTP.
type serveMix struct {
	jobs []serve.JobSpec
	// The last pass's server, results, and the refusals its clients saw.
	last    *serve.Server
	lastOps []opResult
	refused atomic.Int64
}

func setupServeMix(seed uint64, tr *tracer) (bench, error) {
	op := tr.newOp()
	root := tr.begin("setup", op, 0)
	defer tr.end(root)

	m := &serveMix{}
	pairs := workload.Figure10Pairs(workload.NewRegistry())
	names := func(i int) []string {
		p := pairs[i%len(pairs)]
		return []string{p.W[0].Name, p.W[1].Name}
	}
	archs := []string{"private", "temporal", "static", "elastic"}
	n := 0
	next := func() uint64 { n++; return inputSeed(seed, n) }
	for i := 0; i < serveTraffic; i++ {
		s := next()
		m.jobs = append(m.jobs, serve.JobSpec{
			Kind: "traffic", Arch: archs[i%len(archs)], Verify: true,
			Traffic: fmt.Sprintf(serveTrafficSpec, s%1_000_000+1),
		})
	}
	for i := 0; i < serveCampaigns; i++ {
		k := i % serveWarmKeys
		m.jobs = append(m.jobs, serve.JobSpec{
			Kind: "campaign", Arch: archs[(k+1)%len(archs)], Workloads: names(3 * k), Verify: true,
			Seed: inputSeed(seed, 1000+k), Scale: serveScale,
			Faults: []string{"", fmt.Sprintf("exebu:%d@%d", 1+i/serveWarmKeys%3, 3000+100*i)},
		})
	}
	for i := 0; i < serveFarMem; i++ {
		m.jobs = append(m.jobs, serve.JobSpec{
			Kind: "pair", Arch: archs[i%len(archs)], Workloads: names(7 * i), Verify: true,
			Seed: next(), Scale: serveScale, Machine: farMemory,
		})
	}
	for i := 0; i < servePairs; i++ {
		m.jobs = append(m.jobs, serve.JobSpec{
			Kind: "pair", Arch: archs[i%len(archs)], Workloads: names(i), Verify: true,
			Seed: next(), Scale: serveScale,
		})
	}
	for i := range m.jobs {
		m.jobs[i].Tenant = fmt.Sprintf("tenant%d", i%4)
		if err := m.jobs[i].Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	// A set-up ends with the service up and answering.
	srv, ts, err := startService()
	if err != nil {
		return nil, err
	}
	defer stopService(srv, ts)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return m, nil
}

func startService() (*serve.Server, *httptest.Server, error) {
	srv, err := serve.New(serve.Options{Workers: clients})
	if err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

func stopService(srv *serve.Server, ts *httptest.Server) {
	ts.Close()
	_ = srv.Drain() // no journal: Drain can only report a repeated call
}

// runPass serves the job list once on a fresh service, so every pass starts
// from a cold checkpoint cache.
func (m *serveMix) runPass(tr *tracer) pass {
	srv, ts, err := startService()
	if err != nil {
		return pass{ops: []opResult{{err: err}}}
	}
	defer stopService(srv, ts)
	m.last = srv
	m.refused.Store(0)
	client := ts.Client()
	p := closedLoop(len(m.jobs), clients, func(i int) opResult {
		return m.job(tr, srv, client, ts.URL, i)
	})
	m.lastOps = p.ops
	return p
}

// job submits one spec, waits for it and fetches its result.
func (m *serveMix) job(tr *tracer, srv *serve.Server, client *http.Client, url string, i int) opResult {
	op := tr.newOp()
	root := tr.begin("op", op, 0)
	defer tr.end(root)

	var out opResult
	spec := m.jobs[i]
	body, err := json.Marshal(spec)
	if err != nil {
		return out.fail(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = tr.call("serve.submit", op, root, func() error {
		return doJSON(client, http.MethodPost, url+"/jobs", body, http.StatusAccepted, &sub)
	})
	if err != nil {
		m.refused.Add(1)
		return out.fail(fmt.Errorf("job %d submit: %w", i, err))
	}
	job, ok := srv.Job(sub.ID)
	if !ok {
		return out.fail(fmt.Errorf("job %d: service lost %s", i, sub.ID))
	}
	_ = tr.call("serve.complete", op, root, func() error {
		<-job.Done()
		return nil
	})
	var doc json.RawMessage
	if err := tr.call("serve.fetch", op, root, func() error {
		return doJSON(client, http.MethodGet, url+"/jobs/"+sub.ID+"/result", nil, http.StatusOK, &doc)
	}); err != nil {
		return out.fail(fmt.Errorf("job %d result: %w", i, err))
	}
	if err := out.readResult(spec, doc); err != nil {
		return out.fail(fmt.Errorf("job %d: %w", i, err))
	}
	return out
}

// doJSON makes one request and decodes the reply, which must carry the
// wanted status.
func doJSON(c *http.Client, method, url string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// readResult checks a result document and keeps the words the digest
// covers. The service verified every run it reports (Verify is set on every
// spec, and traffic runs always check conservation).
func (o *opResult) readResult(spec serve.JobSpec, doc json.RawMessage) error {
	switch spec.Kind {
	case "pair":
		var r serve.PairResult
		if err := json.Unmarshal(doc, &r); err != nil {
			return err
		}
		if r.Cycles == 0 || len(r.CoreCycles) != len(spec.Workloads) {
			return fmt.Errorf("pair result incomplete: %s", doc)
		}
		o.cycles = r.Cycles
		o.words = append([]uint64{r.Cycles, r.Elems}, r.CoreCycles...)
	case "campaign":
		var r serve.CampaignResult
		if err := json.Unmarshal(doc, &r); err != nil {
			return err
		}
		if len(r.Points) != len(spec.Faults) {
			return fmt.Errorf("campaign result has %d points, want %d", len(r.Points), len(spec.Faults))
		}
		for _, p := range r.Points {
			o.cycles += p.Cycles - r.WarmupCycles
			o.words = append(o.words, p.Cycles, p.Elems, uint64(p.Recoveries), p.TTRp50)
		}
	case "traffic":
		var r serve.TrafficResult
		if err := json.Unmarshal(doc, &r); err != nil {
			return err
		}
		d, err := strconv.ParseUint(r.Digest, 16, 64)
		if err != nil {
			return fmt.Errorf("traffic digest %q: %w", r.Digest, err)
		}
		if r.Arrivals == 0 {
			return fmt.Errorf("traffic job saw no arrivals")
		}
		o.cycles = r.Cycles
		o.words = []uint64{d, r.Cycles, uint64(r.Arrivals), uint64(r.Completed)}
	}
	return nil
}

// counters replays the pair jobs through the library path and the traffic
// jobs through occamy.RunTraffic. Each replay must reproduce the result the
// service returned.
func (m *serveMix) counters(float64) (map[string]float64, error) {
	var c simCounters
	var cycles, skipped, switches, truncated uint64
	var arrivals, completed, points int
	reg := workload.NewRegistry()
	for i, spec := range m.jobs {
		served := m.lastOps[i].words
		kind, err := serve.ParseArch(spec.Arch)
		if err != nil {
			return nil, err
		}
		switch spec.Kind {
		case "pair":
			s := workload.CoSchedule{Name: fmt.Sprint(spec.Workloads)}
			for _, n := range spec.Workloads {
				s.W = append(s.W, reg.Workload(n))
			}
			o := runPairOp(nil, pairJob{kind: kind, sched: s.Scaled(spec.Scale), machine: spec.Machine}, spec.Seed, false, &c)
			if o.err != nil {
				return nil, fmt.Errorf("replay of job %d: %w", i, o.err)
			}
			if len(served) < 2 || o.words[0] != served[0] || o.words[1] != served[1] {
				return nil, fmt.Errorf("replay of job %d: cycles and elements %v, service returned %v", i, o.words[:2], served)
			}
			cycles += o.cycles
			skipped += o.skipped
		case "traffic":
			cfg := occamy.DefaultConfig(kind)
			cfg.Traffic = spec.Traffic
			cfg.MaxCycles = 0
			rep, err := occamy.RunTraffic(cfg)
			if err != nil {
				return nil, fmt.Errorf("replay of job %d: %w", i, err)
			}
			if err := rep.Conservation(); err != nil {
				return nil, fmt.Errorf("replay of job %d: %w", i, err)
			}
			if len(served) == 0 || rep.Digest != served[0] {
				return nil, fmt.Errorf("replay of job %d: traffic digest %016x differs from the service's", i, rep.Digest)
			}
			switches += rep.Switches
			truncated += uint64(rep.Truncated)
			arrivals += rep.Total.Arrivals
			completed += rep.Total.Completed
		case "campaign":
			points += len(spec.Faults)
		}
	}
	if truncated > 0 {
		return nil, fmt.Errorf("traffic jobs truncated %d arrivals; size them below maxtasks", truncated)
	}
	stats := m.last.Stats()
	out := c.metrics()
	out["sim.skip_ratio"] = ratio(float64(skipped), float64(cycles))
	out["osched.switches"] = float64(switches)
	out["traffic.truncated"] = float64(truncated)
	out["traffic.completed_ratio"] = ratio(float64(completed), float64(arrivals))
	out["serve.cache_hit_ratio"] = ratio(float64(stats.CacheHits()), float64(stats.CacheHits()+stats.CacheMissed()))
	out["serve.rejected"] = float64(m.refused.Load())
	out["serve.retries"] = float64(stats.Retries())
	// Inside the service every campaign point restores the warm-up
	// checkpoint, and every cache hit restores it once more first.
	out["arch.restores"] = float64(points) + float64(stats.CacheHits())
	return out, nil
}
