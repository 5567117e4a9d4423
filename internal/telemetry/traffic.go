package telemetry

import (
	"fmt"
	"io"

	"occamy/internal/obs"
)

// TrafficSource is the open-loop traffic injector's telemetry view
// (internal/traffic's Source satisfies it). Counter methods are cumulative;
// the bin copies are cumulative power-of-two latency histograms.
type TrafficSource interface {
	Queued() int
	Running() int
	Arrived() uint64
	Admitted() uint64
	Completed() uint64
	Canceled() uint64
	CopySojournBins(dst *[obs.NumBins]uint64)
	CopyAdmitBins(dst *[obs.NumBins]uint64)
}

// TrafficWindow is one sampling window's traffic slice: ready-ring and
// on-core gauges at the boundary, per-window task-flow deltas, and windowed
// latency quantiles over the arrivals that completed (sojourn) or first
// dispatched (admission wait) inside the window.
type TrafficWindow struct {
	Queued  int
	Running int

	Arrived   uint64
	Admitted  uint64
	Completed uint64
	Canceled  uint64

	SojournCount uint64
	SojournP50   float64
	SojournP99   float64
	AdmitCount   uint64
	AdmitP50     float64
	AdmitP99     float64
}

// WireTraffic attaches the traffic injector to the sampler. Call it before
// the run starts (internal/traffic's Build does); windows closed afterwards
// carry a traffic slice and it enters Digest — samplers with no traffic
// wired hash exactly as before.
func (s *Sampler) WireTraffic(ts TrafficSource) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.src.Traffic = ts
	s.mu.Unlock()
}

// sampleTraffic fills w's traffic slice. Caller holds s.mu; allocation-free
// (shares the sampler's bin scratch, which the per-core loop has finished
// with).
func (s *Sampler) sampleTraffic(w *Window) {
	ts := s.src.Traffic
	if ts == nil {
		w.HasTraffic = false
		return
	}
	w.HasTraffic = true
	tw := &w.Traffic
	tw.Queued, tw.Running = ts.Queued(), ts.Running()

	a, ad, co, ca := ts.Arrived(), ts.Admitted(), ts.Completed(), ts.Canceled()
	tw.Arrived, s.prev.trafArrived = a-s.prev.trafArrived, a
	tw.Admitted, s.prev.trafAdmitted = ad-s.prev.trafAdmitted, ad
	tw.Completed, s.prev.trafCompleted = co-s.prev.trafCompleted, co
	tw.Canceled, s.prev.trafCanceled = ca-s.prev.trafCanceled, ca

	tw.SojournCount, tw.SojournP50, tw.SojournP99 =
		s.binDelta(ts.CopySojournBins, &s.prev.trafSojourn)
	tw.AdmitCount, tw.AdmitP50, tw.AdmitP99 =
		s.binDelta(ts.CopyAdmitBins, &s.prev.trafAdmit)
}

// binDelta diffs a cumulative bin copy against prev and estimates windowed
// quantiles on the delta, updating prev in place.
func (s *Sampler) binDelta(copyBins func(*[obs.NumBins]uint64), prev *[obs.NumBins]uint64) (cnt uint64, p50, p99 float64) {
	copyBins(&s.scratch)
	for i := range s.scratch {
		d := s.scratch[i] - prev[i]
		s.delta[i] = d
		cnt += d
	}
	*prev = s.scratch
	if cnt > 0 {
		p50 = obs.QuantileBins(&s.delta, 0.50)
		p99 = obs.QuantileBins(&s.delta, 0.99)
	}
	return cnt, p50, p99
}

// Traffic OpenMetrics families, appended to omFamilies at init. Samples are
// emitted only for runs whose sampler has traffic wired, so non-traffic
// /metrics output is unchanged beyond the (legal) empty family declarations.
func init() {
	omFamilies = append(omFamilies,
		omFamily{omMeta{"occamy_traffic_queued", "gauge", "Ready-ring occupancy at the last window boundary."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q} %d\n", n, l, v.Traffic.Queued)
				}
			}},
		omFamily{omMeta{"occamy_traffic_running", "gauge", "Tasks on a core at the last window boundary."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q} %d\n", n, l, v.Traffic.Running)
				}
			}},
		omFamily{omMeta{"occamy_traffic_arrived", "counter", "Task arrivals injected."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q} %d\n", n, l, v.TrafficArrived)
				}
			}},
		omFamily{omMeta{"occamy_traffic_admitted", "counter", "Tasks first-dispatched onto a core."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q} %d\n", n, l, v.TrafficAdmitted)
				}
			}},
		omFamily{omMeta{"occamy_traffic_completed", "counter", "Tasks run to completion."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q} %d\n", n, l, v.TrafficCompleted)
				}
			}},
		omFamily{omMeta{"occamy_traffic_canceled", "counter", "Tasks canceled by tenant churn."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q} %d\n", n, l, v.TrafficCanceled)
				}
			}},
		omFamily{omMeta{"occamy_traffic_sojourn_cycles", "gauge", "Windowed arrival-to-completion latency quantiles."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q,quantile=\"0.5\"} %g\n", n, l, v.Traffic.SojournP50)
					fmt.Fprintf(w, "%s{run=%q,quantile=\"0.99\"} %g\n", n, l, v.Traffic.SojournP99)
				}
			}},
		omFamily{omMeta{"occamy_traffic_admit_wait_cycles", "gauge", "Windowed arrival-to-first-dispatch wait quantiles."},
			func(w io.Writer, n, l string, v *View) {
				if v.HasTraffic {
					fmt.Fprintf(w, "%s{run=%q,quantile=\"0.5\"} %g\n", n, l, v.Traffic.AdmitP50)
					fmt.Fprintf(w, "%s{run=%q,quantile=\"0.99\"} %g\n", n, l, v.Traffic.AdmitP99)
				}
			}},
	)
}
