package main

import (
	"context"
	"fmt"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/dvfs"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/npb"
	"pasp/internal/power"
)

// The reproduction rows: the same experiments.Suite calls, in the same
// configuration, as the BenchmarkXxx functions of the repository's
// bench_test.go, each returning the values that benchmark reports (under
// the same names) plus the row's printed text.

// rowVals are a row's reported values by name.
type rowVals map[string]float64

// row is one reproduction row.
type row struct {
	name string
	run  func(ctx context.Context, s experiments.Suite) (rowVals, string, error)
}

// Probe points derived from the suite's grid, as bench_test.go derives them.
func maxN(s experiments.Suite) int      { return s.Grid.Ns[len(s.Grid.Ns)-1] }
func baseF(s experiments.Suite) float64 { return s.Grid.MHz[0] }
func topF(s experiments.Suite) float64  { return s.Grid.MHz[len(s.Grid.MHz)-1] }
func capN(s experiments.Suite, n int) int {
	if m := maxN(s); m < n {
		return m
	}
	return n
}

// rowNames lists the rows in bench_test.go order.
func rowNames() []string {
	out := make([]string, len(reproRows))
	for i, r := range reproRows {
		out[i] = r.name
	}
	return out
}

var reproRows = []row{
	{"Table1", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		g, err := s.Table1(ctx)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"maxerr%": g.Max() * 100, "meanerr%": g.Mean() * 100}, g.String(), nil
	}},
	{"Table3", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		g, err := s.Table3(ctx)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"maxerr%": g.Max() * 100, "meanerr%": g.Mean() * 100}, g.String(), nil
	}},
	{"Table5", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		r, err := s.Table5()
		if err != nil {
			return nil, "", err
		}
		return rowVals{"onchip%": r.Work.OnChip() / r.Work.Total() * 100}, r.String(), nil
	}},
	{"Table6", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		r, err := s.Table6()
		if err != nil {
			return nil, "", err
		}
		return rowVals{"cpi_on": r.CPIOn[0]}, r.String(), nil
	}},
	{"Table7", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		r, err := s.Table7(ctx)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"fp_maxerr%": r.FP.Max() * 100, "sp_maxerr%": r.SP.Max() * 100}, r.String(), nil
	}},
	{"Figure1", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		fig, err := s.Figure1(ctx)
		if err != nil {
			return nil, "", err
		}
		v, err := fig.Speedup.At(maxN(s), topF(s))
		if err != nil {
			return nil, "", err
		}
		return rowVals{fmt.Sprintf("speedup@%dx%.0f", maxN(s), topF(s)): v}, fig.String(), nil
	}},
	{"Figure2", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		fig, err := s.Figure2(ctx)
		if err != nil {
			return nil, "", err
		}
		v, err := fig.Speedup.At(maxN(s), baseF(s))
		if err != nil {
			return nil, "", err
		}
		return rowVals{fmt.Sprintf("speedup@%dx%.0f", maxN(s), baseF(s)): v}, fig.String(), nil
	}},
	{"EDP", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		r, err := s.EDPForFT(ctx)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"edp_maxerr%": r.EDP.Max() * 100, "time_maxerr%": r.Time.Max() * 100}, r.String(), nil
	}},
	{"DVFSSchedule", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return nil, "", err
		}
		cmp, err := dvfs.Compare(w, dvfs.FTPolicy(s.Platform.Prof), s.RunFT)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"energysave%": cmp.EnergySavings() * 100, "slowdown%": cmp.Slowdown() * 100}, cmp.String(), nil
	}},
	{"AblationContention", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		ideal := s.Platform
		ideal.Net.FlowConcurrency = 0
		limited, err := ftSpeedupAt(s.Platform, s.FT, maxN(s), baseF(s))
		if err != nil {
			return nil, "", err
		}
		unlimited, err := ftSpeedupAt(ideal, s.FT, maxN(s), baseF(s))
		if err != nil {
			return nil, "", err
		}
		return rowVals{"speedup_contended": limited, "speedup_ideal": unlimited}, "", nil
	}},
	{"AblationCommCPU", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		noCPU := s
		noCPU.Platform.Net.MsgCPUIns = 0
		noCPU.Platform.Net.ByteCPUIns = 0
		with, err := s.Table3(ctx)
		if err != nil {
			return nil, "", err
		}
		without, err := noCPU.Table3(ctx)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"maxerr_with%": with.Max() * 100, "maxerr_without%": without.Max() * 100}, "", nil
	}},
	{"AblationBusDrop", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		flat := s.Platform
		flat.Mach.BusDrop = false
		with, err := ftFreqSpeedup(s, s.Platform)
		if err != nil {
			return nil, "", err
		}
		without, err := ftFreqSpeedup(s, flat)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"fspeedup_busdrop": with, "fspeedup_flat": without}, "", nil
	}},
	{"AblationWavefront", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		fitNs := s.LUGrid.Ns[1:]
		last := fitNs[len(fitNs)-1]
		f0 := s.LUGrid.MHz[0]
		camp, err := s.MeasureLU(ctx)
		if err != nil {
			return nil, "", err
		}
		sp, err := core.FitSP(camp.Meas)
		if err != nil {
			return nil, "", err
		}
		v := rowVals{}
		for _, n := range fitNs {
			tpo, err := sp.Overhead(n)
			if err != nil {
				return nil, "", err
			}
			t, err := camp.Meas.Time(n, f0)
			if err != nil {
				return nil, "", err
			}
			if n == last && t > 0 {
				v[fmt.Sprintf("overhead@%d%%", last)] = tpo / t * 100
			}
		}
		return v, "", nil
	}},
	{"FigureCG", kernelFigure("CG (extension)", func(s experiments.Suite) (measureFn, int) { return s.MeasureCG, maxN(s) })},
	{"FigureMG", kernelFigure("MG (extension)", func(s experiments.Suite) (measureFn, int) { return s.MeasureMG, capN(s, 4) })},
	{"FigureIS", kernelFigure("IS (extension)", func(s experiments.Suite) (measureFn, int) { return s.MeasureIS, capN(s, 8) })},
	{"SegmentModel", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		camp, err := s.MeasureFT(ctx)
		if err != nil {
			return nil, "", err
		}
		r, err := s.SegmentVsSP(camp)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"seg_maxerr%": r.Seg.Max() * 100, "sp_maxerr%": r.SP.Max() * 100}, r.String(), nil
	}},
	{"ModelDrivenDVFS", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		camp, err := s.MeasureFT(ctx)
		if err != nil {
			return nil, "", err
		}
		pol, phases, err := s.ModelDrivenDVFS(camp)
		if err != nil {
			return nil, "", err
		}
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return nil, "", err
		}
		cmp, err := dvfs.Compare(w, pol, s.RunFT)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"energysave%": cmp.EnergySavings() * 100, "slowdown%": cmp.Slowdown() * 100},
			fmt.Sprintf("%v %v", phases, cmp), nil
	}},
	{"EDPOptimalGears", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		camp, err := s.MeasureFT(ctx)
		if err != nil {
			return nil, "", err
		}
		pol, err := s.EDPOptimalGears(camp)
		if err != nil {
			return nil, "", err
		}
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return nil, "", err
		}
		cmp, err := dvfs.CompareGears(w, pol, s.RunFT)
		if err != nil {
			return nil, "", err
		}
		base := power.EDP(cmp.BaselineJoules, cmp.BaselineSec)
		sched := power.EDP(cmp.ScheduledJoules, cmp.ScheduledSec)
		if base == 0 {
			return nil, "", fmt.Errorf("EDP-optimal gears: zero baseline EDP")
		}
		return rowVals{"edp_improve%": (1 - sched/base) * 100}, fmt.Sprintf("%v %v", pol, cmp), nil
	}},
	{"ScaledSpeedup", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		mg, err := s.ScaledMG(ctx)
		if err != nil {
			return nil, "", err
		}
		sc, err := mg.Scaled.At(maxN(s), baseF(s))
		if err != nil {
			return nil, "", err
		}
		fx, err := mg.Fixed.At(maxN(s), baseF(s))
		if err != nil {
			return nil, "", err
		}
		return rowVals{
			fmt.Sprintf("mg_scaled@%dx%.0f", maxN(s), baseF(s)): sc,
			fmt.Sprintf("mg_fixed@%dx%.0f", maxN(s), baseF(s)):  fx,
		}, mg.String(), nil
	}},
	{"Extrapolation", func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		if maxN(s) < 16 {
			// bench_test.go skips the row below a 16-node grid: the
			// experiment validates against a held-out N=16 run.
			return rowVals{}, "", nil
		}
		lu, err := s.ExtrapolateLU(ctx)
		if err != nil {
			return nil, "", err
		}
		ft, err := s.ExtrapolateFT(ctx)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"lu_maxerr%": lu.MaxErr() * 100, "ft_maxerr%": ft.MaxErr() * 100}, lu.String() + "\n" + ft.String(), nil
	}},
	{"FigureSP", kernelFigure("SP (extension)", func(s experiments.Suite) (measureFn, int) { return s.MeasureSP, capN(s, 8) })},
	{"AblationPipelineChunks", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		run := func(chunks int) (float64, error) {
			sp := s.SP
			sp.Chunks = chunks
			w, err := s.Platform.World(maxN(s), baseF(s))
			if err != nil {
				return 0, err
			}
			_, r, err := sp.Run(w)
			if err != nil {
				return 0, err
			}
			return r.Seconds, nil
		}
		serial, err := run(1)
		if err != nil {
			return nil, "", err
		}
		piped, err := run(8)
		if err != nil {
			return nil, "", err
		}
		return rowVals{"sec_monolithic": serial, "sec_pipelined": piped}, "", nil
	}},
	{"AdaptiveDVFS", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		ft := s.FT
		ft.Iters = 24
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return nil, "", err
		}
		a := &dvfs.Adaptive{Prof: s.Platform.Prof, SwitchSec: 50e-6}
		cmp, chosen, err := dvfs.CompareAdaptive(w, a, func(w2 mpi.World) (*mpi.Result, error) {
			_, r, err := ft.Run(w2)
			return r, err
		})
		if err != nil {
			return nil, "", err
		}
		return rowVals{"energysave%": cmp.EnergySavings() * 100, "slowdown%": cmp.Slowdown() * 100},
			fmt.Sprintf("%v %v", cmp, chosen), nil
	}},
	{"Isoefficiency", func(_ context.Context, s experiments.Suite) (rowVals, string, error) {
		var ns []int
		for _, n := range s.Grid.Ns {
			if n >= 2 {
				ns = append(ns, n)
			}
		}
		res, err := s.IsoefficiencyCG(ns)
		if err != nil {
			return nil, "", err
		}
		return rowVals{fmt.Sprintf("mult@%d", ns[len(ns)-1]): res.Multiplier[len(res.Multiplier)-1]}, res.String(), nil
	}},
}

type measureFn = func(context.Context) (*experiments.Campaign, error)

// kernelFigure is bench_test.go's kernelFigure: measure a campaign, build
// its two-panel figure and probe the speedup surface.
func kernelFigure(name string, pick func(experiments.Suite) (measureFn, int)) func(context.Context, experiments.Suite) (rowVals, string, error) {
	return func(ctx context.Context, s experiments.Suite) (rowVals, string, error) {
		measure, probeN := pick(s)
		camp, err := measure(ctx)
		if err != nil {
			return nil, "", err
		}
		fig, err := s.FigureFrom(name, camp)
		if err != nil {
			return nil, "", err
		}
		v, err := fig.Speedup.At(probeN, baseF(s))
		if err != nil {
			return nil, "", err
		}
		return rowVals{fmt.Sprintf("speedup@%dx%.0f", probeN, baseF(s)): v}, fig.String(), nil
	}
}

// ftSpeedupAt measures FT's speedup at (n, f MHz) on a platform variant.
func ftSpeedupAt(p cluster.Platform, ft npb.FT, n int, f float64) (float64, error) {
	t1, err := ftSeconds(p, ft, 1, f)
	if err != nil {
		return 0, err
	}
	tn, err := ftSeconds(p, ft, n, f)
	if err != nil {
		return 0, err
	}
	if tn <= 0 {
		return 0, fmt.Errorf("FT at N=%d took no time", n)
	}
	return t1 / tn, nil
}

// ftFreqSpeedup is FT's sequential base-to-top frequency speedup.
func ftFreqSpeedup(s experiments.Suite, p cluster.Platform) (float64, error) {
	slow, err := ftSeconds(p, s.FT, 1, baseF(s))
	if err != nil {
		return 0, err
	}
	fast, err := ftSeconds(p, s.FT, 1, topF(s))
	if err != nil {
		return 0, err
	}
	if fast <= 0 {
		return 0, fmt.Errorf("FT at the top gear took no time")
	}
	return slow / fast, nil
}

func ftSeconds(p cluster.Platform, ft npb.FT, n int, f float64) (float64, error) {
	w, err := p.World(n, f)
	if err != nil {
		return 0, err
	}
	_, r, err := ft.Run(w)
	if err != nil {
		return 0, err
	}
	return r.Seconds, nil
}
