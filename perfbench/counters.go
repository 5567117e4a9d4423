package main

import (
	"strings"
	"sync"

	"occamy/internal/arch"
)

// simCounters sums the simulated counters of the runs of one counter pass:
// the system's counter registry, with per-core "cpuN." entries folded into
// "cpu.", plus the counters arch.Result carries.
type simCounters struct {
	mu sync.Mutex
	n  map[string]uint64
}

// add sums one run's counters. base, when non-nil, holds the counters at the
// checkpoint the run was forked from, so only the fork's own work counts.
func (c *simCounters) add(sys *arch.System, res *arch.Result, base map[string]uint64) {
	m := counterMap(sys, res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = map[string]uint64{}
	}
	for k, v := range m {
		c.n[k] += v - base[k]
	}
}

// counterMap reads a system's counters after res was collected from it.
func counterMap(sys *arch.System, res *arch.Result) map[string]uint64 {
	m := map[string]uint64{}
	for k, v := range sys.Stats.Snapshot() {
		if strings.HasPrefix(k, "cpu") {
			if dot := strings.IndexByte(k, '.'); dot > 0 {
				k = "cpu" + k[dot:]
			}
		}
		m[k] += v
	}
	for _, cr := range res.Cores {
		m["result.rename_stalls"] += cr.RenameStalls
		m["result.drain_wait"] += cr.DrainWait
		m["result.monitor_insts"] += cr.MonitorInsts
	}
	m["result.vinsts"] = vinsts(res)
	m["result.repartitions"] = res.Repartitions
	m["result.reconfigures"] = res.Reconfigures
	m["result.migrations"] = res.Migrations
	m["result.fabric_refusals"] = res.FabricRefusals
	return m
}

// metrics maps the sums onto the per-layer metric names.
func (c *simCounters) metrics() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := func(k string) float64 { return float64(c.n[k]) }
	return map[string]float64{
		"coproc.vinsts":                 n("result.vinsts"),
		"coproc.rename_stall_cycles":    n("result.rename_stalls"),
		"coproc.mshr_retries":           n("coproc.lsu.mshr_retries"),
		"coproc.migrations":             n("result.migrations"),
		"coproc.fabric_refusals":        n("result.fabric_refusals"),
		"lanemgr.repartitions":          n("result.repartitions"),
		"lanemgr.reconfigures":          n("result.reconfigures"),
		"lanemgr.drain_wait_cycles":     n("result.drain_wait"),
		"lanemgr.reconfig_accept_ratio": ratio(n("result.reconfigures"), n("result.reconfigures")+n("coproc.reconfigure_rejects")),
		"mem.vec_hit_ratio":             ratio(n("vec.hit"), n("vec.hit")+n("vec.miss")),
		"mem.l2_hit_ratio":              ratio(n("l2.hit"), n("l2.hit")+n("l2.miss")),
		"mem.dram_bytes":                n("dram.bytes"),
		"mem.vec_mshr_rejects":          n("vec.mshr_reject"),
		"cpu.pool_full_stall_cycles":    n("cpu.pool_full_stall"),
		"cpu.monitor_insts":             n("result.monitor_insts"),
	}
}
