package experiments

import (
	"context"
	"fmt"
	"sort"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
	"pasp/internal/obs"
	"pasp/internal/trace"
)

// Kernel is one registered benchmark: its runner and its campaign grid.
type Kernel struct {
	// Name is the lower-case NAS name ("ep", "ft", ...).
	Name string
	// Run executes the kernel's suite class on a world.
	Run cluster.RunFunc
	// Grid is the campaign the kernel sweeps (LU uses the smaller grid).
	Grid cluster.Grid
	// Measure sweeps the kernel's campaign through the campaign store. The
	// context bounds only this caller's interest in the result; see
	// store.go for the coalescing contract.
	Measure func(ctx context.Context) (*Campaign, error)
	// Peek returns the kernel's campaign only if the store has already
	// finished measuring it — the admission-free fast path paserve answers
	// cache hits from.
	Peek func() (*Campaign, bool)
}

// Kernels returns the suite's registered kernels keyed by name, so
// commands can resolve a -bench flag uniformly.
func (s Suite) Kernels() map[string]Kernel {
	return map[string]Kernel{
		"ep": {Name: "ep", Run: s.RunEP, Grid: s.Grid, Measure: s.MeasureEP,
			Peek: s.peeker("EP", s.EP, s.Grid)},
		"ft": {Name: "ft", Run: s.RunFT, Grid: s.Grid, Measure: s.MeasureFT,
			Peek: s.peeker("FT", s.FT, s.Grid)},
		"lu": {Name: "lu", Run: s.RunLU, Grid: s.LUGrid, Measure: s.MeasureLU,
			Peek: s.peeker("LU", s.LU, s.LUGrid)},
		"cg": {Name: "cg", Run: s.RunCG, Grid: s.Grid, Measure: s.MeasureCG,
			Peek: s.peeker("CG", s.CG, s.Grid)},
		"mg": {Name: "mg", Run: s.RunMG, Grid: s.Grid, Measure: s.MeasureMG,
			Peek: s.peeker("MG", s.MG, s.Grid)},
		"is": {Name: "is", Run: s.RunIS, Grid: s.Grid, Measure: s.MeasureIS,
			Peek: s.peeker("IS", s.IS, s.Grid)},
		"sp": {Name: "sp", Run: s.RunSP, Grid: s.Grid, Measure: s.MeasureSP,
			Peek: s.peeker("SP", s.SP, s.Grid)},
	}
}

// KernelNames returns the registered names, sorted.
func (s Suite) KernelNames() []string {
	ks := s.Kernels()
	out := make([]string, 0, len(ks))
	for n := range ks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Kernel resolves one kernel by name.
func (s Suite) Kernel(name string) (Kernel, error) {
	k, ok := s.Kernels()[name]
	if !ok {
		return Kernel{}, fmt.Errorf("experiments: unknown kernel %q (have %v)", name, s.KernelNames())
	}
	return k, nil
}

// MeasureKernel sweeps the named kernel's grid through the campaign store:
// repeated calls for the same suite return the one memoized campaign.
func (s Suite) MeasureKernel(ctx context.Context, name string) (*Campaign, error) {
	k, err := s.Kernel(name)
	if err != nil {
		return nil, err
	}
	return k.Measure(ctx)
}

// RunKernelOnce executes the named kernel at one configuration.
func (s Suite) RunKernelOnce(name string, n int, mhz float64) (*mpi.Result, error) {
	return s.RunKernelObserved(name, n, mhz, nil)
}

// RunKernelObserved executes the named kernel at one configuration with an
// observability recorder attached: the run span (stamped with the kernel
// name), per-rank phase spans and run metrics land on rec. A nil rec is
// exactly RunKernelOnce.
func (s Suite) RunKernelObserved(name string, n int, mhz float64, rec *obs.Recorder) (*mpi.Result, error) {
	return s.RunKernelTraced(name, n, mhz, rec, nil)
}

// RunKernelTraced executes the named kernel at one configuration with an
// observability recorder and a communication-protocol recorder attached;
// either may be nil to disable that side. The recorders are injected on the
// World rather than the Platform so the campaign store's content
// fingerprint of Platform never sees a pointer.
func (s Suite) RunKernelTraced(name string, n int, mhz float64, rec *obs.Recorder, comm *trace.CommRecorder) (*mpi.Result, error) {
	k, err := s.Kernel(name)
	if err != nil {
		return nil, err
	}
	w, err := s.Platform.World(n, mhz)
	if err != nil {
		return nil, err
	}
	w.Obs = rec
	w.Comm = comm
	res, err := k.Run(w)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.AddRunAttrs(obs.A("kernel", name))
	}
	return res, nil
}

// SuiteByName resolves the -suite flag shared by every command.
func SuiteByName(name string) (Suite, error) {
	switch name {
	case "paper":
		return Paper(), nil
	case "quick":
		return Quick(), nil
	case "scale":
		return Scale(), nil
	default:
		return Suite{}, fmt.Errorf("experiments: unknown suite %q (have paper, quick, scale)", name)
	}
}
