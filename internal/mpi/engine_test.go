package mpi

import (
	"crypto/sha256"
	"errors"
	"fmt"
	stdruntime "runtime"
	"strings"
	"testing"

	"pasp/internal/faults"
)

// requireIdentical asserts that two results are the same run:
// byte-identical timeline, bit-identical makespan and energy, identical
// communication profile.
func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Trace.TimelineCSV() != b.Trace.TimelineCSV() {
		t.Errorf("%s: timelines differ", label)
	}
	if a.Seconds != b.Seconds || a.Joules != b.Joules {
		t.Errorf("%s: outcome differs: %.17g s %.17g J vs %.17g s %.17g J",
			label, a.Seconds, a.Joules, b.Seconds, b.Joules)
	}
	if a.Counters != b.Counters {
		t.Errorf("%s: PAPI counters differ: %+v vs %+v", label, a.Counters, b.Counters)
	}
	for r := range a.PerRank {
		if a.PerRank[r] != b.PerRank[r] {
			t.Errorf("%s: rank %d stats differ: %+v vs %+v", label, r, a.PerRank[r], b.PerRank[r])
		}
	}
}

// writeDifferential appends one frozen cell of the mpi-level differential:
// makespan and energy at full precision, the timeline's SHA-256, and the
// summed counters and every rank's stats verbatim.
func writeDifferential(b *strings.Builder, n int, label string, r *Result) {
	fmt.Fprintf(b, "n=%d %s\nseconds=%.17g joules=%.17g\ntimeline=%x\ncounters=%+v\n",
		n, label, r.Seconds, r.Joules, sha256.Sum256([]byte(r.Trace.TimelineCSV())), r.Counters)
	for rank, s := range r.PerRank {
		fmt.Fprintf(b, "rank %d %+v\n", rank, s)
	}
}

// TestEngineDifferential pins the primitives at the mpi level: the chaos
// program (compute, eager, rendezvous, exchange and collective paths),
// clean and under a fixed chaos seed, across rank counts, must reproduce
// testdata/differential.golden — the outputs the goroutine runtime and the
// event engine agreed on before the goroutine runtime was removed.
func TestEngineDifferential(t *testing.T) {
	var b strings.Builder
	for _, n := range []int{2, 3, 4, 8} {
		for _, mode := range []struct {
			label string
			w     World
		}{{"clean", testWorld(n, 1400)}, {"chaos", chaosWorld(n, chaosCfg)}} {
			res, err := Run(mode.w, chaosProgram)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, mode.label, err)
			}
			if mode.label == "chaos" && (res.FaultSec() == 0 || res.Retries() == 0) {
				t.Errorf("n=%d: chaos run injected nothing", n)
			}
			writeDifferential(&b, n, mode.label, res)
		}
	}
	checkGolden(t, "differential.golden", []byte(b.String()))
}

// TestEventEngineGOMAXPROCS1 pins scheduler independence: the event engine
// must produce the same bytes with the Go scheduler reduced to one P, where
// any accidental reliance on parallel wake-up order would surface.
func TestEventEngineGOMAXPROCS1(t *testing.T) {
	w := chaosWorld(4, chaosCfg)
	base, err := Run(w, chaosProgram)
	if err != nil {
		t.Fatal(err)
	}
	prev := stdruntime.GOMAXPROCS(1)
	single, err := Run(w, chaosProgram)
	stdruntime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if base.Trace.TimelineCSV() != single.Trace.TimelineCSV() {
		t.Error("event engine timeline changed under GOMAXPROCS=1")
	}
}

// TestEventDeadlockDetected: a program where every rank receives first can
// never progress. The engine, which sees the global blocked set, must
// detect the empty run heap and fail every rank with ErrDeadlock.
func TestEventDeadlockDetected(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		got, err := c.Recv(1-c.Rank(), 1)
		if err != nil {
			return err
		}
		c.Free(got)
		return c.Send(1-c.Rank(), 1, []float64{1}, 0)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlocked program returned %v, want ErrDeadlock", err)
	}
}

// TestEventEngineErrorPropagates: a failing rank must tear the job down,
// and Run must prefer the root-cause error over the aborts it induced.
func TestEventEngineErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(testWorld(4, 600), func(c *Ctx) error {
		if c.Rank() == 2 {
			return boom
		}
		return c.Barrier()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the rank 2 root cause", err)
	}
}

// TestEventEngineTagMismatchAborts: a receive that finds the wrong tag
// fails the job with the mismatch, not with the abort it induced.
func TestEventEngineTagMismatchAborts(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{1}, 0)
		}
		_, err := c.Recv(0, 8)
		return err
	})
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("tag mismatch returned %v, want the mismatch error", err)
	}
}

// TestEventEngineBackpressure: a sender streaming more than mailboxDepth
// eager messages before the receiver drains any must park on the full
// queue and resume correctly — same FIFO contents, no loss, no reordering.
func TestEventEngineBackpressure(t *testing.T) {
	const msgs = mailboxDepth + 16
	res, err := Run(testWorld(2, 600), func(c *Ctx) error {
		data := []float64{1}
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i, data, 64); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := c.Recv(0, i)
			if err != nil {
				return err
			}
			c.Free(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].Msgs; got != msgs {
		t.Errorf("sender delivered %d messages, want %d", got, msgs)
	}
}

// recordChaos captures the chaos program's operation stream on n ranks at
// mhz under cfg.
func recordChaos(t *testing.T, n int, mhz float64, cfg faults.Config) *Recording {
	t.Helper()
	w := testWorld(n, mhz)
	w.Faults = cfg
	rec := NewRecording()
	w.Record = rec
	if _, err := Run(w, chaosProgram); err != nil {
		t.Fatal(err)
	}
	if !rec.Complete() {
		t.Fatal("recording not complete after a successful run")
	}
	return rec
}

// TestReplayMatchesDirect is the record/replay contract: replaying a tape
// into the world it was captured in must be bit-identical to running the
// program directly, clean and under chaos.
func TestReplayMatchesDirect(t *testing.T) {
	for _, cfg := range []faults.Config{{}, chaosCfg} {
		label := "clean"
		if cfg.Enabled() {
			label = "chaos"
		}
		rec := recordChaos(t, 4, 1400, cfg)
		target := chaosWorld(4, cfg)
		direct, err := Run(target, chaosProgram)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Replay(target, rec)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, label, direct, replayed)
	}
}

// TestReplayAtOtherFrequency replays a 600 MHz tape at 1400 MHz and checks
// it against a direct 1400 MHz run — the cross-frequency property
// cluster.Sweep's replay fast path rests on.
func TestReplayAtOtherFrequency(t *testing.T) {
	for _, cfg := range []faults.Config{{}, chaosCfg} {
		rec := recordChaos(t, 4, 600, cfg)
		target := chaosWorld(4, cfg)
		direct, err := Run(target, chaosProgram)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Replay(target, rec)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "cross-frequency", direct, replayed)
	}
}

// TestRecordingSingleUse: a Recording attaches to exactly one run, rejects
// replay before completion, rejects rank-count mismatches, and recording
// refuses an OnPhase hook.
func TestRecordingSingleUse(t *testing.T) {
	rec := recordChaos(t, 2, 600, faults.Config{})

	w := testWorld(2, 600)
	w.Record = rec
	if _, err := Run(w, chaosProgram); err == nil {
		t.Error("reattaching a used Recording succeeded")
	}

	fresh := NewRecording()
	if _, err := Replay(testWorld(2, 600), fresh); err == nil {
		t.Error("replaying an empty Recording succeeded")
	}
	if _, err := Replay(testWorld(4, 600), rec); err == nil {
		t.Error("replaying at the wrong rank count succeeded")
	}

	hooked := testWorld(2, 600)
	hooked.Record = NewRecording()
	hooked.OnPhase = func(c *Ctx, phase string) {}
	if _, err := Run(hooked, chaosProgram); err == nil {
		t.Error("recording with an OnPhase hook succeeded")
	}
}

// TestEventEnginePingPongAllocs pins the engine's steady state at zero
// allocations per event: heap slots, mailbox rings and the payload
// freelist all reach their working set during warm-up, after which parking,
// hand-off and delivery allocate nothing. Differencing two round counts
// cancels the per-Run fixed cost exactly as in TestEagerPathAllocs. The
// only marginal allocations left are the shared trace log's amortized slice
// doublings (~2 across the extra 64 rounds); the 0.1 budget admits those
// while rejecting any real per-event cost.
func TestEventEnginePingPongAllocs(t *testing.T) {
	const r = 64
	base := pingPongAllocs(t, r)
	double := pingPongAllocs(t, 2*r)
	perRound := (double - base) / r
	if perRound > 0.1 {
		t.Errorf("ping-pong allocates %.2f allocs/round in steady state, want ~0 (trace-log growth only)", perRound)
	}
}
