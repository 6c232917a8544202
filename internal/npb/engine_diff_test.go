package npb

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pasp/internal/faults"
	"pasp/internal/mpi"
	"pasp/internal/obs"
)

// diffChaosCfg is the fixed chaos seed of the differential matrix: every
// injector class enabled, so the matrix pins the retransmission and
// straggler paths too, not just the clean schedule.
var diffChaosCfg = faults.Config{
	Seed:              7,
	LatencyJitterFrac: 0.5,
	DropProb:          0.05,
	DegradeProb:       0.1,
	DegradeFactor:     2,
	StragglerFrac:     0.25,
	StragglerSlowdown: 1.5,
}

// diffKernels is the full NAS suite in small classes that validate on
// every rank count of the matrix (CG pins Band=4 so its halo of 16 rows
// fits the 16-rank split; MG needs ≥ 2 planes per rank, hence 63³).
type diffKernel struct {
	name string
	run  func(w mpi.World) (*mpi.Result, error)
}

func diffKernels() []diffKernel {
	return []diffKernel{
		{"ep", func(w mpi.World) (*mpi.Result, error) {
			_, r, err := EP{LogPairs: 14, ScaleLog: 6}.Run(w)
			return r, err
		}},
		{"ft", func(w mpi.World) (*mpi.Result, error) {
			_, r, err := FT{Nx: 16, Ny: 16, Nz: 16, Iters: 2}.Run(w)
			return r, err
		}},
		{"lu", func(w mpi.World) (*mpi.Result, error) {
			_, r, err := LU{N: 16, Iters: 2}.Run(w)
			return r, err
		}},
		{"cg", func(w mpi.World) (*mpi.Result, error) {
			_, r, err := CG{Size: 256, Band: 4, OuterIters: 1, CGIters: 5}.Run(w)
			return r, err
		}},
		{"mg", func(w mpi.World) (*mpi.Result, error) {
			_, r, err := MG{Size: 63, Cycles: 1}.Run(w)
			return r, err
		}},
		{"is", func(w mpi.World) (*mpi.Result, error) {
			_, r, err := IS{LogKeys: 12, LogMaxKey: 15, Iters: 2}.Run(w)
			return r, err
		}},
		{"sp", func(w mpi.World) (*mpi.Result, error) {
			_, r, err := SP{N: 16, Steps: 2}.Run(w)
			return r, err
		}},
	}
}

// runObserved executes one kernel with the observability recorder attached
// and returns everything the matrix pins.
func runObserved(t *testing.T, run func(mpi.World) (*mpi.Result, error), n int, cfg faults.Config) (*mpi.Result, string, *obs.EnergyReport) {
	t.Helper()
	w := npbWorld(n, 1400)
	w.Faults = cfg
	rec := obs.NewRecorder()
	w.Obs = rec
	res, err := run(w)
	if err != nil {
		t.Fatal(err)
	}
	rankEnds := make([]float64, len(res.PerRank))
	for i, r := range res.PerRank {
		rankEnds[i] = r.Seconds
	}
	rep := obs.AttributeEnergy(res.Trace, w.Prof, w.State, res.Seconds, rankEnds)
	return res, rec.Metrics().Snapshot().Text(), rep
}

// update rewrites the frozen matrix in testdata instead of comparing
// against it.
var update = flag.Bool("update", false, "rewrite golden files")

// matrixLine renders one frozen cell of the differential matrix: makespan
// and energy at full precision, then the SHA-256 of the timeline, the
// metric snapshot and the per-(rank, phase) energy rows.
func matrixLine(label string, n int, res *mpi.Result, metrics string, rep *obs.EnergyReport) string {
	var rows strings.Builder
	for _, r := range rep.Rows {
		fmt.Fprintf(&rows, "%d %s %.17g %.17g %.17g\n", r.Rank, r.Phase, r.Seconds, r.Joules, r.EDP)
	}
	return fmt.Sprintf("%s N=%d seconds=%.17g joules=%.17g timeline=%x metrics=%x energy=%x\n",
		label, n, res.Seconds, res.Joules, sha256.Sum256([]byte(res.Trace.TimelineCSV())),
		sha256.Sum256([]byte(metrics)), sha256.Sum256([]byte(rows.String())))
}

// TestEngineDifferentialMatrix pins every composition of the mpi
// primitives the reproduction runs: every NAS kernel, at N ∈ {2, 4, 8, 16},
// clean and under a fixed chaos seed, must reproduce
// testdata/engine_matrix.golden — the makespan, energy, timeline, metric
// snapshot and per-(rank, phase) energy attribution the goroutine runtime
// and the event engine agreed on before the goroutine runtime was removed.
// The mpi-level TestEngineDifferential pins the primitives themselves.
func TestEngineDifferentialMatrix(t *testing.T) {
	var b strings.Builder
	for _, k := range diffKernels() {
		for _, n := range []int{2, 4, 8, 16} {
			for _, mode := range []struct {
				label string
				cfg   faults.Config
			}{{"clean", faults.Config{}}, {"chaos", diffChaosCfg}} {
				res, metrics, rep := runObserved(t, k.run, n, mode.cfg)
				b.WriteString(matrixLine(k.name+"/"+mode.label, n, res, metrics, rep))
			}
		}
	}
	path := filepath.Join("testdata", "engine_matrix.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/npb -run %s -update` to create)", err, t.Name())
	}
	if b.String() != string(want) {
		t.Errorf("differential matrix drifted from %s; run with -update if the change is intended.\ngot:\n%s", path, b.String())
	}
}
