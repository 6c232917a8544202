package main

import (
	"context"
	"fmt"
	"os"

	"pasp/internal/cluster"
	"pasp/internal/experiments"
)

// The scale workload sweeps the scaling cells of BenchmarkScale
// (bench_scale_test.go) — CG at 1024 and 256 ranks and FT at 256, each a
// cluster.Sweep over the scale suite's {600, 1400} MHz on the platform's
// default (event) engine. One operation is one round of the
// three cells, in a seed-determined order; each cell's simulated seconds
// and joules are checked against ref/scale.json, itself cross-checked
// against BENCH_2.json.

// scaleCell is one (kernel, N) sweep of the scale suite.
type scaleCell struct {
	name, kernel string
	n            int
}

func scaleCells(small bool) []scaleCell {
	if small {
		return []scaleCell{{"cg16", "cg", 16}}
	}
	return []scaleCell{{"cg1024", "cg", 1024}, {"cg256", "cg", 256}, {"ft256", "ft", 256}}
}

// bench2Row names the cell's row in BENCH_2.json.
func (c scaleCell) bench2Row() string {
	return fmt.Sprintf("Scale/%s/event/n%04d", c.kernel, c.n)
}

// sweep runs the cell and returns its simulated seconds and joules per gear.
func (c scaleCell) sweep(ctx context.Context) (map[string]float64, error) {
	s := experiments.Scale()
	k, err := s.Kernel(c.kernel)
	if err != nil {
		return nil, err
	}
	cells, err := cluster.Sweep(ctx, s.Platform, cluster.Grid{Ns: []int{c.n}, MHz: s.Grid.MHz}, k.Run)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for _, cell := range cells {
		vals[fmt.Sprintf("simsec@%.0f", cell.MHz)] = cell.Res.Seconds
		vals[fmt.Sprintf("simJ@%.0f", cell.MHz)] = cell.Res.Joules
	}
	return vals, nil
}

// checkScale compares a cell's values with the reference.
func (r *refs) checkScale(got childRow) error {
	if got.Err != "" {
		return fmt.Errorf("scale %s: %s", got.Name, got.Err)
	}
	want, ok := r.Scale[got.Name]
	if !ok {
		return fmt.Errorf("scale %s: no reference", got.Name)
	}
	return sameRecord("scale "+got.Name, valueRecord(got.Values), want)
}

// roundsPerChild is how many timed rounds one child process runs.
const roundsPerChild = 2

// runScale measures the rounds in fresh child processes: the level a
// process settles at (heap layout, page placement) differs from process to
// process by more than rounds within one process differ, so several
// processes per run sample that variation instead of freezing one draw of
// it. A child first sweeps every cell untimed — its set-up, which fills
// the FFT plans, payload freelists and heap — and then times
// roundsPerChild rounds of the three cells in the seed's order.
// ops_per_s counts rounds per second of timed rounds, without the set-up.
func runScale(ctx context.Context, b *bench, p *pass) error {
	cells := scaleCells(b.cfg.small)
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.name
	}
	order := permute(names, b.cfg.seed)
	var list []string
	for i := 0; i < roundsPerChild; i++ {
		list = append(list, order...)
	}
	perCell := map[string][]float64{}
	var rss []float64
	start := now()
	for child := 0; ; child++ {
		span := p.tr.begin(p.parent, fmt.Sprintf("bench.child:%d", child), 0)
		out, err := b.runChild(ctx, "scale", list)
		if err != nil {
			return err
		}
		p.setups = append(p.setups, out.setup+out.WarmS)
		rss = append(rss, out.rssMB)
		p.proc = out.proc()
		for _, r := range out.Warm {
			p.check(b.refs.checkScale(r))
		}
		round := 0.0
		for i, r := range out.Rows {
			p.check(b.refs.checkScale(r))
			perCell[r.Name] = append(perCell[r.Name], r.Seconds)
			if p.tr != nil {
				at := p.tr.at(out.readyAt) + r.Start
				p.tr.add(span, "cluster.Sweep:"+r.Name, 0, at, at+r.Seconds)
			}
			round += r.Seconds
			if (i+1)%len(order) == 0 {
				p.ops = append(p.ops, round)
				p.window += round
				round = 0
			}
		}
		p.tr.end(span)
		if since(start) >= p.seconds {
			break
		}
	}
	p.maxRSSMB = median(rss)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "perfbench: scale cell %s: median %.4fs over %d rounds\n",
			name, median(perCell[name]), len(perCell[name]))
	}
	return nil
}
