package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// The serve workloads start a `paserve -suite paper` process and drive it
// from this process in a closed loop: each client on its own keep-alive
// connection, sending its next request only after the previous reply has
// been read — one client per CPU for serve-hit, one client for serve-sim,
// whose large trace exports made latency and peak RSS depend on which
// requests happened to overlap. Requests come from a deck dealt across the
// server instances of a run, each hand shuffled by the seed; hands are
// always played to their end, so every run serves the same request mix
// whatever its length.
//
//   - serve-hit: /predict over every contract (kernel, N, f) cell plus a
//     minority of /sweep, all answered from measured campaigns. Each
//     /predict body must equal its internal/serve contract golden byte for
//     byte; /sweep bodies must match their reference fingerprints.
//   - serve-sim: /trace over kernels × N ∈ {2,4,8,16} × {600,1400} MHz plus
//     a minority of small /robustness specs; every request simulates. Each
//     body must match its reference fingerprint and size; the reference
//     traces passed obs.ValidateChromeTrace with the recorded event counts.

// serverStarts is how many server instances a run starts and measures;
// setup_s is their median start-to-warm time.
const serverStarts = 3

// request is one entry of a workload's deck.
type request struct {
	path, key string
	body      []byte
	weight    int
}

var contractNs = []int{2, 4, 8, 16}
var contractGears = []float64{600, 1400}

// robustnessKernels are the kernels serve-sim's /robustness specs fit.
var robustnessKernels = []string{"cg", "ep", "is"}

// hitCatalogue is serve-hit's deck: each /predict contract cell three times
// and each kernel's /sweep once (about 4% sweeps).
func hitCatalogue(kernels []string) []request {
	s := experiments.Paper()
	var out []request
	for _, k := range kernels {
		kr, err := s.Kernel(k)
		if err != nil {
			continue
		}
		for _, n := range contractNs {
			for _, f := range contractGears {
				if !slices.Contains(kr.Grid.Ns, n) || !slices.Contains(kr.Grid.MHz, f) {
					continue
				}
				out = append(out, request{path: "/predict", key: fmt.Sprintf("%s n=%d f=%g", k, n, f),
					body: []byte(fmt.Sprintf(`{"kernel":%q,"n":%d,"f":%g}`, k, n, f)), weight: 3})
			}
		}
		out = append(out, request{path: "/sweep", key: k, body: []byte(fmt.Sprintf(`{"kernel":%q}`, k)), weight: 1})
	}
	return out
}

// simCatalogue is serve-sim's deck: every /trace configuration once and
// small /robustness specs (two seeds × N ∈ {2,4}, magnitudes {0,1}).
func simCatalogue(kernels []string) []request {
	var out []request
	for _, k := range kernels {
		for _, n := range contractNs {
			for _, f := range contractGears {
				out = append(out, request{path: "/trace", key: fmt.Sprintf("%s n=%d f=%g", k, n, f),
					body: []byte(fmt.Sprintf(`{"kernel":%q,"n":%d,"f":%g}`, k, n, f)), weight: 1})
			}
		}
	}
	for _, k := range robustKernels(kernels) {
		for _, n := range []int{2, 4} {
			for _, seed := range []int{1, 2} {
				out = append(out, request{path: "/robustness", key: fmt.Sprintf("%s n=%d seed=%d", k, n, seed),
					body:   []byte(fmt.Sprintf(`{"kernel":%q,"ns":[%d],"magnitudes":[0,1],"seed":%d}`, k, n, seed)),
					weight: 1})
			}
		}
	}
	return out
}

func robustKernels(kernels []string) []string {
	var out []string
	for _, k := range robustnessKernels {
		if slices.Contains(kernels, k) {
			out = append(out, k)
		}
	}
	return out
}

// serveKernels is the kernel set the serve decks cover at this size.
func (b *bench) serveKernels() []string {
	if b.cfg.small {
		return []string{"ep"}
	}
	return kernelNames
}

// deal expands the catalogue's weights into a deck and deals it, in
// catalogue order, into serverStarts hands — so neighbouring entries such
// as one configuration's two gears land in different hands and the hands
// cost about the same — then shuffles each hand by seed.
func deal(cat []request, seed uint64) [][]request {
	keys := make([][]string, serverStarts)
	byKey := map[string]request{}
	j := 0
	for _, r := range cat {
		k := r.path + " " + r.key
		byKey[k] = r
		for i := 0; i < r.weight; i++ {
			keys[j%serverStarts] = append(keys[j%serverStarts], k)
			j++
		}
	}
	hands := make([][]request, serverStarts)
	for h := range hands {
		for _, k := range permute(keys[h], seed+uint64(h)) {
			hands[h] = append(hands[h], byKey[k])
		}
	}
	return hands
}

// check validates one response body against the references.
func (r *refs) checkServe(req request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.path, req.key, status)
	}
	var ok bool
	switch req.path {
	case "/predict":
		ok = bytes.Equal(body, r.predict[req.key])
	case "/sweep":
		ok = fingerprint(body) == r.Serve.Sweep[req.key]
	case "/trace":
		want := r.Serve.Trace[req.key]
		ok = len(body) == want.Bytes && fingerprint(body) == want.Hash
	case "/robustness":
		ok = fingerprint(body) == r.Serve.Robustness[req.key]
	}
	if !ok {
		return fmt.Errorf("%s %s: body differs from the reference", req.path, req.key)
	}
	return nil
}

func runServeHit(ctx context.Context, b *bench, p *pass) error {
	ks := b.serveKernels()
	return b.runServe(ctx, p, ks, deal(hitCatalogue(ks), b.cfg.seed), runtime.NumCPU())
}

func runServeSim(ctx context.Context, b *bench, p *pass) error {
	ks := b.serveKernels()
	// The robustness fits need their clean campaigns; /trace needs none.
	return b.runServe(ctx, p, robustKernels(ks), deal(simCatalogue(ks), b.cfg.seed), 1)
}

// runServe starts the server serverStarts times, warming the given
// kernels each time, and measures every instance: instance 0 plays its
// hand, whole, as often as fits its share of the measuring time, and every
// other instance plays its own hand the same number of times, so a run
// always serves whole decks. Pooling instances samples the process-to-
// process variation of a server instead of freezing one draw of it. Each
// instance serves a different hand, so maxrss_mb is the run's peak: the
// largest instance's.
func (b *bench) runServe(ctx context.Context, p *pass, warm []string, hands [][]request, clients int) error {
	var rss []float64
	var reps int64 // hand repetitions, fixed by instance 0
	for s := 0; s < serverStarts; s++ {
		t0 := now()
		srv, err := startPaserve(ctx, b.cfg.paserve, warm)
		if err != nil {
			return err
		}
		p.setups = append(p.setups, since(t0))
		played, lerr := closedLoop(ctx, p, "http://"+srv.addr, hands[s], b.refs, clients, p.seconds/serverStarts, reps)
		reps = played
		snap, serr := scrapeMetrics("http://" + srv.addr)
		peak, err := srv.stop()
		if err := errors.Join(lerr, serr, err); err != nil {
			return err
		}
		rss = append(rss, peak)
		p.proc = procStats{
			gcPauseMs: gauge(snap, "go.gc_pause_total_seconds") * msPerSec,
			heapMB:    gauge(snap, "go.heap_alloc_bytes") / bytesPerMB,
		}
		fmt.Fprintf(os.Stderr, "perfbench: paserve %d store: %g hits, %g misses, %g coalesced\n",
			s, snap.Counter("store.hits"), snap.Counter("store.misses"), snap.Counter("store.coalesced"))
	}
	p.maxRSSMB = slices.Max(rss)
	return nil
}

// closedLoop plays the deck with the given number of clients, reps times
// or — when reps is 0 — until the given seconds have passed and the
// current deck is finished. It adds its latencies and wall time to p and
// returns how many times it played the deck.
func closedLoop(ctx context.Context, p *pass, base string, d []request, r *refs, clients int, seconds float64, reps int64) (int64, error) {
	var (
		next   atomic.Int64
		stopAt atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	deckLen := int64(len(d))
	stopAt.Store(-1) // undecided: the time limit sets it at a deck boundary
	if reps > 0 {
		stopAt.Store(reps * deckLen)
	}
	start := now()
	var lastEnd atomic.Int64 // nanoseconds after start
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
			var buf bytes.Buffer
			var lat []float64
			var results []error
			for {
				i := next.Add(1) - 1
				if since(start) >= seconds {
					lim := max((i+deckLen-1)/deckLen*deckLen, deckLen)
					stopAt.CompareAndSwap(-1, lim)
				}
				if lim := stopAt.Load(); lim >= 0 && i >= lim {
					break
				}
				req := d[i%deckLen]
				id := p.tr.begin(p.parent, "serve.request:"+strings.TrimPrefix(req.path, "/"), c+1, obs.A("key", req.key))
				t := now()
				status, err := post(ctx, hc, base+req.path, req.body, &buf)
				lat = append(lat, since(t))
				p.tr.end(id)
				for end := int64(now().Sub(start)); ; {
					old := lastEnd.Load()
					if end <= old || lastEnd.CompareAndSwap(old, end) {
						break
					}
				}
				if err == nil {
					err = r.checkServe(req, status, buf.Bytes())
				}
				results = append(results, err)
			}
			mu.Lock()
			defer mu.Unlock()
			p.ops = append(p.ops, lat...)
			for _, err := range results {
				p.check(err)
			}
		}(c)
	}
	wg.Wait()
	p.window += time.Duration(lastEnd.Load()).Seconds()
	return stopAt.Load() / deckLen, ctx.Err()
}

// post sends one request and reads the whole reply into buf.
func post(ctx context.Context, hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// paserve is one running server process.
type paserve struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when the server's stdout reaches EOF
}

// startPaserve starts the server on a free loopback port and waits until
// it has warmed the kernels and is listening.
func startPaserve(ctx context.Context, bin string, warm []string) (*paserve, error) {
	if bin == "" {
		return nil, fmt.Errorf("no paserve binary (pass -paserve, or run through run.sh)")
	}
	args := []string{"-addr", "127.0.0.1:0", "-suite", "paper", "-max-inflight", "4"}
	if len(warm) > 0 {
		args = append(args, "-warm", strings.Join(warm, ","))
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &paserve{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1) // one send at most; never blocks the reader
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " listening on "); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
	}()
	timer := time.NewTimer(2 * time.Minute)
	defer timer.Stop()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		err = fmt.Errorf("paserve exited before listening")
	case <-timer.C:
		err = fmt.Errorf("paserve did not listen within 2m")
	case <-ctx.Done():
		err = ctx.Err()
	}
	_ = cmd.Process.Kill()
	<-s.done
	_ = cmd.Wait()
	return nil, err
}

// stop drains the server with SIGTERM (SIGKILL after 30 s), waits for it to
// exit and returns its peak RSS in MB.
func (s *paserve) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case <-s.done:
	case <-timer.C:
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	err := s.cmd.Wait()
	if err != nil {
		err = fmt.Errorf("paserve: %w", err)
	}
	return childRSSMB(s.cmd.ProcessState), err
}

// scrapeMetrics reads the server's /metrics snapshot.
func scrapeMetrics(base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(data, &snap)
}

func gauge(s obs.Snapshot, name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
