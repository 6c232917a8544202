package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/obs"
	"pasp/internal/serve"
	"pasp/internal/simnet"
	"pasp/internal/trace"
	"pasp/internal/units"
)

// The layer probes of the traced run. Each probe calls one layer through
// its public functions, inside a span named after the layer, and reports
// the per-call cost. They run after the traced pass of every workload, so
// every traced run reports the same per-layer metrics; which end-to-end
// metric each should move, on which workload, is in README.md.

// probeSizes scales the probes: full size for measurements, tiny for the
// output-contract self-check.
type probeSizes struct {
	handoffRounds int
	epochs        map[int]int // allreduce epochs per N
	alltoall      int
	loops         int // iterations of the nanosecond-scale probes
	fits          int
	handler       int
	suite         experiments.Suite
}

func sizes(small bool) probeSizes {
	if small {
		return probeSizes{handoffRounds: 200, epochs: map[int]int{16: 4, 256: 2, 1024: 2}, alltoall: 2,
			loops: 1000, fits: 5, handler: 20, suite: experiments.Quick()}
	}
	return probeSizes{handoffRounds: 20000, epochs: map[int]int{16: 400, 256: 40, 1024: 12}, alltoall: 10,
		loops: 1000000, fits: 200, handler: 2000, suite: experiments.Paper()}
}

// sink keeps the nanosecond-scale probes' results observable so the
// compiler cannot drop the calls.
var sink float64

func probeLayers(ctx context.Context, b *bench, p *pass, tr *tracer, m map[string]float64) error {
	z := sizes(b.cfg.small)
	root := tr.begin(-1, "bench.probes", 0)
	defer tr.end(root)
	for _, step := range []func(context.Context, probeSizes, *tracer, int, map[string]float64) error{
		probeMPI, probeSimnet, probeTrace, probeNPB, probeCluster, probeFits, probeObs, probeServe,
	} {
		if err := step(ctx, z, tr, root, m); err != nil {
			return err
		}
	}
	return probeRows(ctx, b, p, tr, root, m)
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn in a span and returns its host seconds and allocations.
func timed(tr *tracer, parent int, name string, fn func() error) (sec float64, allocs uint64, err error) {
	a0 := mallocs()
	id := tr.begin(parent, name, 0)
	t0 := now()
	err = fn()
	sec = since(t0)
	tr.end(id)
	return sec, mallocs() - a0, err
}

// mpiRun runs fn on n ranks of the scale platform (event engine).
func mpiRun(n int, fn mpi.RankFunc) error {
	w, err := experiments.Scale().Platform.World(n, 600)
	if err != nil {
		return err
	}
	_, err = mpi.Run(w, fn)
	return err
}

// probeMPI measures the event-engine hand-off and one collective epoch.
// Epoch costs subtract a one-epoch run, which removes world start-up.
func probeMPI(_ context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	rounds := z.handoffRounds
	msg := []float64{1}
	sec, _, err := timed(tr, parent, "mpi.pingpong", func() error {
		return mpiRun(2, func(c *mpi.Ctx) error {
			peer := 1 - c.Rank()
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, 0, msg, 8); err != nil {
						return err
					}
				}
				got, err := c.Recv(peer, 0)
				if err != nil {
					return err
				}
				c.Free(got)
				if c.Rank() == 1 {
					if err := c.Send(peer, 0, msg, 8); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("mpi ping-pong: %w", err)
	}
	m["mpi.handoff_ns"] = sec / float64(2*rounds) * 1e9
	allreduce := func(epochs int) func(c *mpi.Ctx) error {
		return func(c *mpi.Ctx) error {
			for i := 0; i < epochs; i++ {
				if _, err := c.Allreduce([]float64{float64(c.Rank())}, mpi.Sum, 8); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, n := range []int{16, 256, 1024} {
		k := z.epochs[n]
		if k < 2 {
			return fmt.Errorf("mpi allreduce N=%d: need at least 2 epochs, have %d", n, k)
		}
		base, baseAllocs, err := timed(tr, parent, fmt.Sprintf("mpi.allreduce:n%d:1", n), func() error { return mpiRun(n, allreduce(1)) })
		if err != nil {
			return fmt.Errorf("mpi allreduce N=%d: %w", n, err)
		}
		sec, allocs, err := timed(tr, parent, fmt.Sprintf("mpi.allreduce:n%d:%d", n, k), func() error { return mpiRun(n, allreduce(k)) })
		if err != nil {
			return fmt.Errorf("mpi allreduce N=%d: %w", n, err)
		}
		m[fmt.Sprintf("mpi.allreduce_us.n%d", n)] = (sec - base) / float64(k-1) * 1e6
		if n == 1024 {
			m["mpi.allreduce_allocs.n1024"] = float64(allocs-baseAllocs) / float64(k-1)
		}
	}
	alltoall := func(epochs int) func(c *mpi.Ctx) error {
		return func(c *mpi.Ctx) error {
			parts := make([][]float64, c.Size())
			for i := range parts {
				parts[i] = []float64{float64(c.Rank()), float64(i)}
			}
			for i := 0; i < epochs; i++ {
				recv, err := c.Alltoall(parts, 16)
				if err != nil {
					return err
				}
				for _, blk := range recv {
					c.Free(blk)
				}
			}
			return nil
		}
	}
	const a2aN = 256
	k := z.alltoall
	if k < 2 {
		return fmt.Errorf("mpi alltoall: need at least 2 epochs, have %d", k)
	}
	base, baseAllocs, err := timed(tr, parent, "mpi.alltoall:n256:1", func() error { return mpiRun(a2aN, alltoall(1)) })
	if err != nil {
		return fmt.Errorf("mpi alltoall: %w", err)
	}
	sec, allocs, err := timed(tr, parent, fmt.Sprintf("mpi.alltoall:n256:%d", k), func() error { return mpiRun(a2aN, alltoall(k)) })
	if err != nil {
		return fmt.Errorf("mpi alltoall: %w", err)
	}
	m["mpi.alltoall_us.n256"] = (sec - base) / float64(k-1) * 1e6
	m["mpi.alltoall_allocs.n256"] = float64(allocs-baseAllocs) / float64(k-1)
	return nil
}

// probeSimnet prices messages on the paper's Fast Ethernet model.
func probeSimnet(_ context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	net := simnet.FastEthernet()
	f := units.MHz(600)
	n := z.loops
	sec, _, _ := timed(tr, parent, "simnet.PointToPoint", func() error {
		for i := 0; i < n; i++ {
			sink += net.PointToPoint(64+i%65536, f, f)
		}
		return nil
	})
	m["simnet.p2p_ns"] = sec / float64(n) * 1e9
	sec, _, _ = timed(tr, parent, "simnet.ContendedWireTime", func() error {
		for i := 0; i < n; i++ {
			sink += net.ContendedWireTime(64+i%65536, 1+i%16)
		}
		return nil
	})
	m["simnet.contended_ns"] = sec / float64(n) * 1e9
	return nil
}

// probeTrace appends to a fresh trace log, growth included.
func probeTrace(_ context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	n := z.loops
	var l trace.Log
	sec, _, _ := timed(tr, parent, "trace.Append", func() error {
		for i := 0; i < n; i++ {
			t := float64(i)
			l.Append(trace.Event{Rank: i & 15, Phase: "probe", Kind: trace.Compute, Start: t, End: t + 1, Watts: 20})
		}
		return nil
	})
	sink += float64(l.Len())
	m["trace.append_ns"] = sec / float64(n) * 1e9
	return nil
}

// probeNPB runs each kernel once at N=1, base gear: mostly numerics.
func probeNPB(_ context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	s := z.suite
	for _, k := range kernelNames {
		var res *mpi.Result
		sec, allocs, err := timed(tr, parent, "npb.run:"+k, func() error {
			var err error
			res, err = s.RunKernelOnce(k, 1, s.Grid.MHz[0])
			return err
		})
		if err != nil {
			return fmt.Errorf("npb %s: %w", k, err)
		}
		m["npb."+k+".run_ms"] = sec * msPerSec
		m["npb."+k+".allocs"] = float64(allocs)
		m["trace.events."+k] = float64(res.Trace.Len())
	}
	return nil
}

// probeCluster sweeps each kernel's campaign grid cold (no store).
func probeCluster(ctx context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	s := z.suite
	for _, k := range kernelNames {
		kr, err := s.Kernel(k)
		if err != nil {
			return err
		}
		sec, _, err := timed(tr, parent, "cluster.Sweep:"+k, func() error {
			_, err := cluster.Sweep(ctx, s.Platform, kr.Grid, kr.Run)
			return err
		})
		if err != nil {
			return fmt.Errorf("cluster sweep %s: %w", k, err)
		}
		m["cluster.sweep_s."+k] = sec
	}
	return nil
}

// probeFits times the store peek and the SP and FP fits on FT's campaign.
func probeFits(ctx context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	s := z.suite
	k, err := s.Kernel("ft")
	if err != nil {
		return err
	}
	camp, err := k.Measure(ctx)
	if err != nil {
		return fmt.Errorf("measure ft: %w", err)
	}
	n := z.loops / 10
	sec, _, _ := timed(tr, parent, "experiments.Peek", func() error {
		for i := 0; i < n; i++ {
			if _, ok := k.Peek(); !ok {
				return fmt.Errorf("peek missed a measured campaign")
			}
		}
		return nil
	})
	m["experiments.peek_ns"] = sec / float64(n) * 1e9
	fits := z.fits
	sec, _, err = timed(tr, parent, "core.FitSP", func() error {
		for i := 0; i < fits; i++ {
			if _, err := core.FitSP(camp.Meas); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fit SP: %w", err)
	}
	m["core.fitsp_us"] = sec / float64(fits) * 1e6
	fpFits := max(fits/20, 1)
	sec, _, err = timed(tr, parent, "experiments.FitFP", func() error {
		for i := 0; i < fpFits; i++ {
			if _, err := s.FitFP(camp, k.Grid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fit FP: %w", err)
	}
	m["experiments.fitfp_ms"] = sec / float64(fpFits) * msPerSec
	return nil
}

// probeObs exports and validates each kernel's trace at serve-sim's
// largest configuration: the grid's largest N at the top gear.
func probeObs(_ context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	s := z.suite
	n := maxN(s)
	f := s.Grid.MHz[len(s.Grid.MHz)-1]
	for _, k := range kernelNames {
		res, err := s.RunKernelOnce(k, n, f)
		if err != nil {
			return fmt.Errorf("obs %s: %w", k, err)
		}
		var data []byte
		sec, _, _ := timed(tr, parent, "obs.ChromeTrace:"+k, func() error {
			data = obs.ChromeTrace(res.Trace, "perfbench "+k)
			return nil
		})
		m["obs.chrometrace_ms."+k] = sec * msPerSec
		m["obs.trace_bytes."+k] = float64(len(data))
		sec, _, err = timed(tr, parent, "obs.ValidateChromeTrace:"+k, func() error {
			_, err := obs.ValidateChromeTrace(data)
			return err
		})
		if err != nil {
			return fmt.Errorf("obs %s: %w", k, err)
		}
		m["obs.validate_ms."+k] = sec * msPerSec
	}
	return nil
}

// probeServe times the handler on an in-memory recorder (no network) and
// the same /predict over a loopback keep-alive connection; the difference
// of the medians is the transport's share of a cache hit.
func probeServe(_ context.Context, z probeSizes, tr *tracer, parent int, m map[string]float64) error {
	s := z.suite
	srv := serve.New(serve.Config{Suite: s, SuiteName: "perfbench", Registry: obs.NewRegistry()})
	h := srv.Handler()
	predict := request{path: "/predict", body: []byte(`{"kernel":"ft","n":2,"f":600}`)}
	sweep := request{path: "/sweep", body: []byte(`{"kernel":"ft"}`)}
	tracereq := request{path: "/trace", body: []byte(`{"kernel":"ep","n":4,"f":600}`)}
	handler := func(name string, req request, reps int) (float64, error) {
		lat := make([]float64, 0, reps)
		id := tr.begin(parent, name, 0)
		defer tr.end(id)
		for i := 0; i < reps; i++ {
			t := now()
			body, status := serveInProcess(h, req)
			lat = append(lat, since(t))
			if status != http.StatusOK {
				return 0, fmt.Errorf("%s: status %d: %s", req.path, status, body)
			}
		}
		return median(lat), nil
	}
	predictSec, err := handler("serve.handler:predict", predict, z.handler)
	if err != nil {
		return err
	}
	m["serve.predict_us"] = predictSec * 1e6
	sec, err := handler("serve.handler:sweep", sweep, max(z.handler/10, 1))
	if err != nil {
		return err
	}
	m["serve.sweep_us"] = sec * 1e6
	sec, err = handler("serve.handler:trace", tracereq, max(z.handler/100, 3))
	if err != nil {
		return err
	}
	m["serve.trace_ms"] = sec * msPerSec

	ts := httptest.NewServer(h)
	defer ts.Close()
	ht := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer ht.CloseIdleConnections()
	hc := &http.Client{Transport: ht}
	var buf bytes.Buffer
	lat := make([]float64, 0, z.handler)
	id := tr.begin(parent, "serve.roundtrip:predict", 0)
	for i := 0; i < z.handler; i++ {
		t := now()
		status, err := post(context.Background(), hc, ts.URL+predict.path, predict.body, &buf)
		lat = append(lat, since(t))
		if err != nil || status != http.StatusOK {
			tr.end(id)
			return fmt.Errorf("loopback /predict: status %d: %v", status, err)
		}
	}
	tr.end(id)
	m["serve.roundtrip_us"] = median(lat) * 1e6
	m["serve.transport_us"] = (median(lat) - predictSec) * 1e6
	return nil
}

// probeRows times each reproduction row cold: every row runs alone in a
// fresh child process, so no row rides on a campaign another row measured.
// The campaign-store hits and misses of the cold rows are summed; each
// row's own counts go to stderr.
func probeRows(ctx context.Context, b *bench, p *pass, tr *tracer, parent int, m map[string]float64) error {
	m["experiments.store_hits"], m["experiments.store_misses"] = 0, 0
	for _, name := range rowNames() {
		id := tr.begin(parent, "bench.child:"+name, 0)
		out, err := b.runChild(ctx, "reproduce", []string{name})
		if err != nil {
			tr.end(id)
			return err
		}
		for _, r := range out.Rows {
			p.check(b.refs.checkRow(b.suiteName(), r))
			at := tr.at(out.readyAt) + r.Start
			tr.add(id, "experiments.row:"+r.Name, 0, at, at+r.Seconds)
			m["experiments.row_s."+r.Name] = r.Seconds
		}
		tr.end(id)
		m["experiments.store_hits"] += out.StoreHits
		m["experiments.store_misses"] += out.StoreMisses
		fmt.Fprintf(os.Stderr, "perfbench: cold row %-22s %8.4fs  store %g hits %g misses\n",
			name, m["experiments.row_s."+name], out.StoreHits, out.StoreMisses)
	}
	return nil
}
