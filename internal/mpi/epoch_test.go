package mpi

import (
	"errors"
	"fmt"
	"math"
	stdruntime "runtime"
	"testing"
)

// epochValues is rank r's Allreduce contribution for the bit-identity test.
// Element 0 is ones then 1e16 on the last rank: in rank order the ones add
// up exactly before meeting 1e16, in reverse order each one rounds away, so
// the total depends on summation order. Element 1 mixes ±1e16 with ones and
// inexact decimals; element 2 feeds the Max case.
func epochValues(r, n int) []float64 {
	first := 1.0
	if r == n-1 {
		first = 1e16
	}
	return []float64{
		first,
		[]float64{1e16, 1, -1e16, 0.1, 1}[r%5] * float64(1+r%7),
		float64((r * 7919) % n),
	}
}

// allreducePerRank runs one Allreduce epoch of op over contrib on every
// rank and returns each rank's result.
func allreducePerRank(t *testing.T, n int, op Op, contrib func(r int) []float64) [][]float64 {
	t.Helper()
	got := make([][]float64, n)
	_, err := Run(testWorld(n, 1400), func(c *Ctx) error {
		out, err := c.Allreduce(contrib(c.Rank()), op, 0)
		got[c.Rank()] = out
		return err
	})
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return got
}

// TestAllreduceEpochMatchesSerialRankOrder pins the epoch closer's
// numerics: the once-per-epoch reduction must equal, bit for bit on every
// rank, a serial combination in rank order — the order each rank used when
// it combined the deposits itself.
func TestAllreduceEpochMatchesSerialRankOrder(t *testing.T) {
	for _, n := range []int{3, 64, 1024} {
		serialSum := make([]float64, 3)
		reverseSum := make([]float64, 3)
		serialMax := math.Inf(-1)
		for r := 0; r < n; r++ {
			v := epochValues(r, n)
			for i := range serialSum {
				serialSum[i] += v[i]
				reverseSum[i] += epochValues(n-1-r, n)[i]
			}
			serialMax = math.Max(serialMax, v[2])
		}
		if serialSum[0] == reverseSum[0] {
			t.Fatalf("n=%d: test values are not order-sensitive (%g both ways)", n, serialSum[0])
		}
		sums := allreducePerRank(t, n, Sum, func(r int) []float64 { return epochValues(r, n) })
		maxes := allreducePerRank(t, n, Max, func(r int) []float64 { return epochValues(r, n)[2:] })
		for r := 0; r < n; r++ {
			for i, want := range serialSum {
				if math.Float64bits(sums[r][i]) != math.Float64bits(want) {
					t.Fatalf("n=%d rank %d: sum[%d] = %.17g, want %.17g", n, r, i, sums[r][i], want)
				}
			}
			if len(maxes[r]) != 1 || maxes[r][0] != serialMax {
				t.Fatalf("n=%d rank %d: max = %v, want %g", n, r, maxes[r], serialMax)
			}
		}
	}
}

// TestAllreduceResultIsPrivate pins result ownership: the closer computes
// one shared vector per epoch, but each rank gets its own copy. A rank that
// overwrites its result must change neither its peers' results nor later
// epochs, including the epoch that reuses the same snapshot container.
func TestAllreduceResultIsPrivate(t *testing.T) {
	for _, n := range []int{3, 64} {
		w := testWorld(n, 600)
		tri := float64(n * (n - 1) / 2) // Σ rank
		_, err := Run(w, func(c *Ctx) error {
			var outs [3][]float64
			for k := range outs {
				out, err := c.Allreduce([]float64{float64(c.Rank() * (k + 1))}, Sum, 0)
				if err != nil {
					return err
				}
				outs[k] = out
				if c.Rank() == k {
					out[0] = -99 // scribble on this rank's own copy
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			for k, out := range outs {
				want := tri * float64(k+1)
				if c.Rank() == k {
					want = -99
				}
				if out[0] != want {
					return fmt.Errorf("epoch %d result = %g, want %g", k, out[0], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestReductionMismatchFailsEveryRank pins the closer's error path: deposits
// it cannot combine — vectors of different lengths, or ranks passing
// different operators — fail the call with the same error on every rank,
// the non-root ranks of a Reduce included, and the job ends instead of
// hanging.
func TestReductionMismatchFailsEveryRank(t *testing.T) {
	cases := []struct {
		name string
		call func(c *Ctx) error
	}{
		{"allreduce length", func(c *Ctx) error {
			_, err := c.Allreduce(make([]float64, 1+c.Rank()%2), Sum, 0)
			return err
		}},
		{"reduce length", func(c *Ctx) error {
			_, err := c.Reduce(0, make([]float64, 1+c.Rank()%2), Sum, 0)
			return err
		}},
		{"allreduce op", func(c *Ctx) error {
			op := Sum
			if c.Rank() == c.Size()-1 {
				op = Max
			}
			_, err := c.Allreduce([]float64{1}, op, 0)
			return err
		}},
		{"reduce op", func(c *Ctx) error {
			op := Max
			if c.Rank() == 1 {
				op = Sum
			}
			_, err := c.Reduce(0, []float64{1}, op, 0)
			return err
		}},
	}
	for _, tc := range cases {
		for _, n := range []int{2, 16} {
			w := testWorld(n, 600)
			errs := make([]error, n)
			_, err := Run(w, func(c *Ctx) error {
				errs[c.Rank()] = tc.call(c)
				return errs[c.Rank()]
			})
			if err == nil {
				t.Fatalf("%s n=%d: mismatch accepted", tc.name, n)
			}
			for r, e := range errs {
				if e == nil || errors.Is(e, ErrAborted) || e.Error() != errs[0].Error() {
					t.Fatalf("%s n=%d: rank %d returned %v, want rank 0's %v", tc.name, n, r, e, errs[0])
				}
			}
		}
	}
}

// BenchmarkAllreduceEpoch measures one 1-element Allreduce epoch on the
// event engine as the world grows: ns/epoch and allocs/epoch over b.N
// epochs inside one job, excluding the job's start-up and teardown and a
// warm-up epoch. The event engine runs one rank at a time, so rank 0 may
// drive the benchmark timer from inside the job.
func BenchmarkAllreduceEpoch(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			w := testWorld(n, 1400)
			var m0, m1 stdruntime.MemStats
			_, err := Run(w, func(c *Ctx) error {
				data := []float64{float64(c.Rank())}
				for i := -1; i < b.N; i++ {
					if i == 0 && c.Rank() == 0 {
						stdruntime.ReadMemStats(&m0)
						b.ResetTimer()
					}
					out, err := c.Allreduce(data, Sum, 8)
					if err != nil {
						return err
					}
					c.Free(out)
				}
				if c.Rank() == 0 {
					b.StopTimer()
					stdruntime.ReadMemStats(&m1)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/epoch")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/epoch")
		})
	}
}
