package arch

import (
	"fmt"
	"strings"
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/fault"
	"occamy/internal/obs"
	"occamy/internal/workload"
)

// TestIssueScheduleGolden is a model-level oracle for the co-processor's
// issue schedule. The differential tests compare two execution strategies of
// the same model (skip-ahead vs legacy tick, fork vs straight run), so a
// wrong cycle count that both strategies share passes them. This test pins
// the absolute numbers instead: every core's completion cycle, compute and
// memory issue counts, MSHR retries, rename stalls, drain-wait cycles and
// top-down attribution buckets, on three schedules × four architectures.
// The golden values were recorded from the polling issue scan that the
// event-driven wakeup replaced; a change to the timing model must update
// them deliberately.
func TestIssueScheduleGolden(t *testing.T) {
	reg := workload.NewRegistry()
	exebu, err := fault.ParseSpec("exebu:2@4000")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sched workload.CoSchedule
		opts  Options
	}{
		{"motivating", workload.MotivatingPair(reg).Scaled(0.25), Options{Seed: 7}},
		{"case1-exebu", workload.CaseStudyPair(reg, 1).Scaled(0.2), Options{Seed: 7, Faults: exebu}},
		{"four-2cl", workload.FourCoreGroups(reg)[0].Scaled(0.3),
			Options{Seed: 11, Topology: &coproc.Topology{Clusters: 2, HopLatency: 2}}},
	}
	for _, tc := range cases {
		for _, kind := range Kinds {
			name := tc.name + "/" + kind.String()
			t.Run(name, func(t *testing.T) {
				opts := tc.opts
				opts.Obs = obs.Options{Attribution: true}
				sys, res := runTopo(t, kind, tc.sched, opts)
				if err := sys.CheckResults(2e-3); err != nil {
					t.Fatalf("functional check: %v", err)
				}
				got := scheduleFingerprint(sys, res)
				want, ok := issueScheduleGolden[name]
				if !ok {
					t.Fatalf("no golden entry; got:\n%q", got)
				}
				if got != want {
					t.Errorf("issue schedule drifted\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// scheduleFingerprint renders the timing-model quantities the golden table
// pins, one line per core.
func scheduleFingerprint(sys *System, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d", res.Cycles)
	for c, cr := range res.Cores {
		snap := sys.Cplx.CoreSnapshot(c)
		fmt.Fprintf(&b, "; c%d cyc=%d ci=%d mi=%d mshr=%d rs=%d dw=%d attr=%v",
			c, cr.Cycles, cr.ComputeIssued, cr.MemIssued, snap.MSHRRetries,
			cr.RenameStalls, cr.DrainWait, cr.Attribution.Buckets)
	}
	return b.String()
}

// issueScheduleGolden holds the recorded fingerprints, keyed by case/arch.
var issueScheduleGolden = map[string]string{
	"motivating/Private":  "makespan=15428; c0 cyc=9467 ci=2304 mi=5376 mshr=8843 rs=0 dw=0 attr=[1 5016 0 0 0 142 4293 0 0 15]; c1 cyc=15428 ci=24579 mi=6144 mshr=32 rs=0 dw=0 attr=[0 14161 0 0 0 1262 1 0 0 4]",
	"motivating/FTS":      "makespan=13816; c0 cyc=9498 ci=1152 mi=2688 mshr=7546 rs=9355 dw=0 attr=[1 3102 6293 0 1 68 3 0 0 30]; c1 cyc=13816 ci=12291 mi=3072 mshr=127 rs=13757 dw=0 attr=[0 7241 6555 0 4 10 2 0 0 4]",
	"motivating/VLS":      "makespan=10804; c0 cyc=10804 ci=3072 mi=7168 mshr=5610 rs=0 dw=0 attr=[1 5649 0 0 0 2253 2897 0 0 4]; c1 cyc=10229 ci=19971 mi=4992 mshr=5 rs=0 dw=0 attr=[0 10023 0 0 0 202 0 0 0 4]",
	"motivating/Occamy":   "makespan=11863; c0 cyc=11863 ci=2986 mi=7502 mshr=3591 rs=0 dw=100 attr=[89 5206 0 0 0 4033 2395 138 2 0]; c1 cyc=9440 ci=17849 mi=4460 mshr=21 rs=0 dw=11 attr=[173 8975 0 0 0 181 5 99 7 0]",
	"case1-exebu/Private": "makespan=24748; c0 cyc=9472 ci=3082 mi=4620 mshr=4852 rs=0 dw=0 attr=[1 3738 0 0 3645 14 2070 0 0 4]; c1 cyc=24748 ci=19971 mi=4992 mshr=13 rs=0 dw=0 attr=[0 10490 0 0 13829 424 1 0 0 4]",
	"case1-exebu/FTS":     "makespan=19288; c0 cyc=9438 ci=1542 mi=2310 mshr=5037 rs=9294 dw=0 attr=[1 2880 6438 0 82 17 6 0 0 14]; c1 cyc=19288 ci=10755 mi=2688 mshr=103 rs=19078 dw=0 attr=[0 6159 12985 0 63 73 4 0 0 4]",
	"case1-exebu/VLS":     "makespan=10850; c0 cyc=10850 ci=10772 mi=15395 mshr=1054 rs=0 dw=0 attr=[1 8349 0 0 0 1852 644 0 0 4]; c1 cyc=7840 ci=15187 mi=3796 mshr=71 rs=0 dw=0 attr=[0 7646 0 0 0 157 33 0 0 4]",
	"case1-exebu/Occamy":  "makespan=11958; c0 cyc=11958 ci=4644 mi=7451 mshr=4446 rs=0 dw=103 attr=[36 5764 0 0 0 3483 2557 115 3 0]; c1 cyc=9038 ci=16841 mi=4208 mshr=5 rs=0 dw=15 attr=[203 8488 0 0 1 218 3 119 6 0]",
	"four-2cl/Private":    "makespan=34877; c0 cyc=25461 ci=3228 mi=5993 mshr=20250 rs=0 dw=0 attr=[1 7565 0 0 2 4144 13716 0 0 33]; c1 cyc=23843 ci=2766 mi=6454 mshr=10251 rs=0 dw=0 attr=[1 6744 0 0 2 9284 7645 0 0 167]; c2 cyc=26448 ci=9602 mi=7680 mshr=890 rs=0 dw=0 attr=[0 12559 0 0 2 13071 812 0 0 4]; c3 cyc=34877 ci=30723 mi=7680 mshr=854 rs=0 dw=0 attr=[0 18311 0 0 1 15823 738 0 0 4]",
	"four-2cl/FTS":        "makespan=29314; c0 cyc=27179 ci=1618 mi=3003 mshr=9774 rs=27080 dw=0 attr=[1 3354 23733 0 3 84 0 0 0 4]; c1 cyc=25183 ci=1386 mi=3234 mshr=9392 rs=25126 dw=0 attr=[1 3282 21852 0 3 40 0 0 0 5]; c2 cyc=20626 ci=4802 mi=3840 mshr=186 rs=20598 dw=0 attr=[0 6459 14148 0 2 13 0 0 0 4]; c3 cyc=29314 ci=15363 mi=3840 mshr=283 rs=29289 dw=0 attr=[0 13297 16000 0 2 11 0 0 0 4]",
	"four-2cl/VLS":        "makespan=31591; c0 cyc=25005 ci=3228 mi=5993 mshr=20084 rs=0 dw=0 attr=[1 7457 0 0 2 3822 13668 0 0 55]; c1 cyc=23815 ci=2766 mi=6454 mshr=10821 rs=0 dw=0 attr=[1 6578 0 0 2 8974 8112 0 0 148]; c2 cyc=27543 ci=12482 mi=9984 mshr=1076 rs=0 dw=0 attr=[0 13313 0 0 2 13258 966 0 0 4]; c3 cyc=31591 ci=24579 mi=6144 mshr=1096 rs=0 dw=0 attr=[0 15037 0 0 1 15597 952 0 0 4]",
	"four-2cl/Occamy":     "makespan=29807; c0 cyc=25045 ci=3159 mi=5884 mshr=18891 rs=0 dw=419 attr=[27 7366 0 0 14 4437 12761 440 0 0]; c1 cyc=23997 ci=2766 mi=6454 mshr=10830 rs=0 dw=405 attr=[156 6691 0 0 79 8599 7910 554 8 0]; c2 cyc=27302 ci=12484 mi=9984 mshr=342 rs=0 dw=7 attr=[10 13037 0 0 7 13885 281 82 0 0]; c3 cyc=29807 ci=21705 mi=5424 mshr=579 rs=0 dw=11 attr=[11 13585 0 0 6 15723 456 19 7 0]",
}
