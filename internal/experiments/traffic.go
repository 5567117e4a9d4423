package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"

	"occamy/internal/arch"
	"occamy/internal/fault"
	"occamy/internal/metrics"
	"occamy/internal/telemetry"
	"occamy/internal/traffic"
)

// TrafficLoads is the overload sweep's offered-load multipliers: from half
// the co-processor's estimated service capacity to 4x over it.
var TrafficLoads = []float64{0.5, 1, 2, 4}

// DefaultTrafficSpec is the sweep's base arrival process (the load= field is
// swept): a 4-tenant Poisson mix over the Table 3 kernels on 4 cores, with
// tenant churn so exits and re-admissions happen under every load.
const DefaultTrafficSpec = "poisson:tenants=4,cores=4,horizon=24000,slice=500,elems=384,repeats=1,churn=1800:2600"

// trafficFaults is the -faults variant's injection schedule: a transient
// loss of 2 ExeBUs through the middle half of the horizon, landing while the
// queues are loaded so admission, revocation and re-admission all interact
// with the shrunken pool.
func trafficFaults(horizon uint64) []fault.Fault {
	return []fault.Fault{{
		Kind: fault.ExeBU, Count: 2, Cluster: fault.AnyCluster,
		At: horizon / 4, For: horizon / 2,
	}}
}

// TrafficPoint is one (architecture, load, fault-variant) traffic run.
type TrafficPoint struct {
	Load    float64
	Faulted bool
	Report  *traffic.Report
}

// TrafficSweep holds the overload sweep: for every architecture, one point
// per load (and per fault variant when faults were requested), in
// TrafficLoads order with the clean point before the faulted one.
type TrafficSweep struct {
	Spec      traffic.Spec // base spec (Load is per-point)
	WithFault bool
	Points    map[arch.Kind][]TrafficPoint
}

// Traffic runs the open-loop overload sweep: TrafficLoads × all four
// architectures, each point an independent seeded traffic run whose
// per-tenant SLO report is conservation-checked before it lands in the
// sweep. specStr overrides the base spec ("" uses DefaultTrafficSpec);
// withFaults doubles the sweep with the transient-fault variant.
func (c Config) Traffic(specStr string, withFaults bool) (*TrafficSweep, error) {
	if specStr == "" {
		specStr = DefaultTrafficSpec
	}
	base, err := traffic.ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	base.ApplyDefaults()

	variants := []bool{false}
	if withFaults {
		variants = append(variants, true)
	}
	out := &TrafficSweep{Spec: base, WithFault: withFaults, Points: make(map[arch.Kind][]TrafficPoint, len(arch.Kinds))}
	type job struct {
		kind    arch.Kind
		slot    int
		load    float64
		faulted bool
	}
	var jobs []job
	for _, kind := range arch.Kinds {
		out.Points[kind] = make([]TrafficPoint, 0, len(TrafficLoads)*len(variants))
		for _, load := range TrafficLoads {
			for _, f := range variants {
				out.Points[kind] = append(out.Points[kind], TrafficPoint{Load: load, Faulted: f})
				jobs = append(jobs, job{kind, len(out.Points[kind]) - 1, load, f})
			}
		}
	}

	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.maxParallel())
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			labels := pprof.Labels("sweep", "traffic", "point", fmt.Sprintf("%s/%gx/faulted=%v", j.kind, j.load, j.faulted))
			pprof.Do(context.Background(), labels, func(context.Context) {
				rep, err := c.trafficPoint(j.kind, base, j.load, j.faulted)
				if err != nil {
					errs[i] = fmt.Errorf("traffic %s load=%gx faulted=%v: %w", j.kind, j.load, j.faulted, err)
					return
				}
				out.Points[j.kind][j.slot].Report = rep
			})
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// trafficPoint runs one sweep point and conservation-checks its report.
func (c Config) trafficPoint(kind arch.Kind, base traffic.Spec, load float64, faulted bool) (*traffic.Report, error) {
	spec := base
	spec.Load = load
	opts := arch.Options{Seed: c.Seed, LegacyTick: c.LegacyTick}
	if c.Telemetry != nil {
		opts.Telemetry = &telemetry.Config{Window: c.TelemetryWindow}
	}
	if faulted {
		opts.Faults = trafficFaults(spec.Horizon)
	}
	sc, err := traffic.Build(kind, spec, opts)
	if err != nil {
		return nil, err
	}
	sc.Sys.SetInterrupt(c.Interrupt)
	label := fmt.Sprintf("traffic-%s-%gx", kind, load)
	if faulted {
		label += "-faulted"
	}
	c.Telemetry.Attach(label, sc.Sys.Tele)
	runErr := sc.Run(sc.DefaultBudget())
	sc.Sys.Tele.Flush(sc.Sys.Engine.Cycle())
	if runErr != nil {
		return nil, runErr
	}
	rep, err := sc.ReportVerified(2e-3)
	if err != nil {
		return nil, err
	}
	if err := rep.Conservation(); err != nil {
		return nil, err
	}
	if err := sc.ConservationDeep(); err != nil {
		return nil, err
	}
	return rep, nil
}

// TotalCycles sums the simulated cycles across every sweep point.
func (s *TrafficSweep) TotalCycles() uint64 {
	var n uint64
	for _, pts := range s.Points {
		for _, p := range pts {
			if p.Report != nil {
				n += p.Report.Cycles
			}
		}
	}
	return n
}

// Starvations lists the sweep points where a tenant with a fair chance
// completed nothing — the fairness-floor claim is that this list is empty
// for the elastic architecture at every load.
func (s *TrafficSweep) Starvations(kind arch.Kind) []string {
	var out []string
	for _, p := range s.Points[kind] {
		if p.Report == nil {
			continue
		}
		if starved := p.Report.Starved(); len(starved) > 0 {
			tag := fmt.Sprintf("load=%gx", p.Load)
			if p.Faulted {
				tag += "+faults"
			}
			out = append(out, fmt.Sprintf("%s tenants %v", tag, starved))
		}
	}
	return out
}

// Render produces the overload tables: aggregate p99 sojourn, p99 admission
// wait and SLO@8x attainment per architecture per load, then the per-tenant
// table for the highest clean overload point of the elastic architecture.
func (s *TrafficSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Traffic: open-loop overload sweep (%s process, %d tenants, %d cores,\nhorizon %d cycles%s; latencies in cycles over all arrivals, misses counted)\n\n",
		s.Spec.Process, s.Spec.Tenants, s.Spec.Cores, s.Spec.Horizon,
		map[bool]string{true: ", + transient 2-ExeBU fault variant", false: ""}[s.WithFault])

	variant := func(p TrafficPoint) string {
		if p.Faulted {
			return fmt.Sprintf("%gx+F", p.Load)
		}
		return fmt.Sprintf("%gx", p.Load)
	}
	table := func(title string, cell func(*traffic.Report) string) {
		fmt.Fprintf(&b, "%s:\n", title)
		t := &metrics.Table{Header: []string{"Load"}}
		for _, kind := range arch.Kinds {
			t.Header = append(t.Header, kind.String())
		}
		ref := s.Points[arch.Kinds[0]]
		for i := range ref {
			row := []string{variant(ref[i])}
			for _, kind := range arch.Kinds {
				p := s.Points[kind][i]
				if p.Report == nil {
					row = append(row, "-")
					continue
				}
				row = append(row, cell(p.Report))
			}
			t.Add(row...)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}

	table("p99 sojourn (arrival→completion)", func(r *traffic.Report) string {
		return fmt.Sprintf("%d", r.Total.SojournP99)
	})
	table("p99 admission wait (arrival→first dispatch)", func(r *traffic.Report) string {
		return fmt.Sprintf("%d", r.Total.AdmitP99)
	})
	table("SLO attainment @8x service estimate", func(r *traffic.Report) string {
		if len(r.Total.Attainment) > 3 {
			return metrics.FormatPct(r.Total.Attainment[3])
		}
		return "-"
	})
	table("completed / arrived", func(r *traffic.Report) string {
		return fmt.Sprintf("%d/%d", r.Total.Completed, r.Total.Arrivals)
	})

	for _, kind := range arch.Kinds {
		if st := s.Starvations(kind); len(st) > 0 {
			fmt.Fprintf(&b, "%s starved: %s\n", kind, strings.Join(st, "; "))
		}
	}
	if st := s.Starvations(arch.Occamy); len(st) == 0 {
		b.WriteString("Occamy fairness floor held: every active tenant completed work at every load.\n")
	}

	// The highest clean overload point, per tenant, on the elastic machine.
	pts := s.Points[arch.Occamy]
	for i := len(pts) - 1; i >= 0; i-- {
		if !pts[i].Faulted && pts[i].Report != nil {
			fmt.Fprintf(&b, "\nPer-tenant detail, Occamy at %gx:\n%s", pts[i].Load, pts[i].Report.Summary())
			break
		}
	}
	return b.String()
}
