package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/serve"
)

// The serve workload drives POST /v1/simulate on a loopback listener as a
// closed loop: each of cfg.workers clients sends its next request when
// the previous reply has been read. It is the only workload that crosses
// HTTP/JSON and the scheduler queue.

// servePool is how many distinct requests a run cycles through; entry i
// returns the signal when i%4 == 0, and asks for the stage breakdown
// (without the signal) when i%4 == 3. Each of the four kinds spans the
// same evenly spaced program lengths, 100 to ~500 instructions, so the
// seed changes the programs but not the mix of sizes: with lengths drawn
// at random, the mean signal size of a 128-entry pool varied by ±12%
// between seeds and the latency with it.
const servePool = 512

// serveEntry is one request of the pool with its reference result.
type serveEntry struct {
	body           []byte
	signal, stages bool
	cycles         int
	stats          cpu.Stats
	sigLen         int
	sigHash        uint64 // of the reference signal's float64 bits
	want           uint64 // hash of the verified response body
}

var hashSeed = maphash.MakeSeed()

func signalHash(sig []float64) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var b [8]byte
	for _, v := range sig {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// servePoolFor generates the seeded request pool and simulates every
// program once through core.Session for the reference results.
func servePoolFor(m *core.Model, seed int64, quick bool) ([]serveEntry, error) {
	n := servePool
	if quick {
		n = 8
	}
	sess, err := core.NewSession(m, cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([]serveEntry, n)
	for i := range pool {
		words, err := core.MixedProgram(rand.New(rand.NewSource(rng.Int63())), 100+(i/4)*401/(n/4))
		if err != nil {
			return nil, err
		}
		e := &pool[i]
		e.signal, e.stages = i%4 == 0, i%4 == 3
		if e.body, err = json.Marshal(map[string]any{
			"words": words, "omit_signal": !e.signal, "include_stages": e.stages,
		}); err != nil {
			return nil, err
		}
		sig, err := sess.SimulateProgram(words)
		if err != nil {
			return nil, err
		}
		e.cycles, e.stats = sess.Cycles(), sess.Stats()
		e.sigLen, e.sigHash = len(sig), signalHash(sig)
	}
	return pool, nil
}

// simResponse is the client's view of a /v1/simulate reply.
type simResponse struct {
	Cycles int `json:"cycles"`
	Stats  struct {
		Retired     int     `json:"retired"`
		IPC         float64 `json:"ipc"`
		Bubbles     int     `json:"bubbles"`
		StallCycles int     `json:"stall_cycles"`
		Flushes     int     `json:"flushes"`
		CacheHits   uint64  `json:"cache_hits"`
		CacheMisses uint64  `json:"cache_misses"`
		Mispredicts uint64  `json:"mispredicts"`
	} `json:"stats"`
	Signal []float64         `json:"signal"`
	Stages []json.RawMessage `json:"stages"`
}

// verify checks a reply against the entry's core.Session reference: the
// signal bit for bit, the cycle count and every statistic.
func (e *serveEntry) verify(body []byte) error {
	var r simResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("serve: decode reply: %w", err)
	}
	st := e.stats
	switch {
	case r.Cycles != e.cycles:
		return fmt.Errorf("serve: %d cycles, want %d", r.Cycles, e.cycles)
	case r.Stats.Retired != st.Retired || r.Stats.Bubbles != st.Bubbles ||
		r.Stats.StallCycles != st.StallCycles || r.Stats.Flushes != st.Flushes ||
		r.Stats.CacheHits != st.CacheHits || r.Stats.CacheMisses != st.CacheMisses ||
		r.Stats.Mispredicts != st.Mispredicts || r.Stats.IPC != st.IPC():
		return errors.New("serve: reply stats differ from core.Session's")
	case e.signal && (len(r.Signal) != e.sigLen || signalHash(r.Signal) != e.sigHash):
		return errors.New("serve: reply signal differs from core.Session's")
	case !e.signal && len(r.Signal) != 0:
		return errors.New("serve: signal returned despite omit_signal")
	case e.stages != (len(r.Stages) == int(cpu.NumStages)):
		return errors.New("serve: stage breakdown missing or unrequested")
	}
	return nil
}

// server is one running service on a loopback listener.
type server struct {
	model *core.Model
	srv   *serve.Server
	http  *http.Server
	url   string
	done  chan struct{}
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout leaves connections to the Close below
	_ = s.http.Close()
	<-s.done
	s.srv.Close()
}

// startServer is the serve workload's set-up: load the pinned model,
// build the service, listen on loopback and wait until it answers.
func startServer(cfg config, client *http.Client) (*server, error) {
	m, err := core.LoadModelFile(modelPath(cfg.root))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(m, serve.Config{Workers: cfg.workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{model: m, srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := client.Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// sample is one completed request as the client saw it.
type sample struct {
	entry   int
	latency time.Duration
	bytes   int
	err     error
}

// post sends pool entry i and reads the whole reply into buf.
func post(client *http.Client, url string, e *serveEntry, buf *bytes.Buffer) error {
	resp, err := client.Post(url+"/v1/simulate", "application/json", bytes.NewReader(e.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(buf.String()))
	}
	return nil
}

// closedLoop runs cfg.workers clients until d elapses. A reply whose body
// differs from the entry's verified body is verified again in full. With
// a tracer each request is recorded as a span under parent.
func closedLoop(cfg config, client *http.Client, url string, pool []serveEntry, d time.Duration, tr *tracer, parent int, opBase *int64) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []sample
			for i := c; len(mine) == 0 || time.Since(start) < d; i += cfg.workers {
				k := i % len(pool)
				e := &pool[k]
				t0 := time.Now()
				err := post(client, url, e, &buf)
				t1 := time.Now()
				if err == nil && maphash.Bytes(hashSeed, buf.Bytes()) != e.want {
					err = e.verify(buf.Bytes())
				}
				if tr != nil {
					mu.Lock()
					op := *opBase
					*opBase++
					mu.Unlock()
					tr.add("serve.request", t0, t1, parent, op, c+1)
				}
				mine = append(mine, sample{entry: k, latency: t1.Sub(t0), bytes: buf.Len(), err: err})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

func newClient(workers int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}}
}

// serveSegments is how many closed-loop segments an untraced run is split
// into; the server is set up once more (and closed) between segments.
const serveSegments = 8

// serveStart sets the server up, then builds the request pool and
// verifies one reply per entry in full; that reply's body hash is what
// later replies are checked against.
func serveStart(cfg config, client *http.Client, rep *report) (*server, []serveEntry, *setupTimer[*server], error) {
	su := &setupTimer[*server]{setup: func() (*server, error) { return startServer(cfg, client) }, release: (*server).close}
	s, err := su.first()
	if err != nil {
		return nil, nil, nil, err
	}
	pool, err := servePoolFor(s.model, cfg.seed, cfg.quick)
	if err != nil {
		s.close()
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	for i := range pool {
		e := &pool[i]
		err := post(client, s.url, e, &buf)
		if err == nil && cfg.corrupt && i == 0 {
			buf.Truncate(buf.Len() - 2) // drop the closing brace
		}
		if err == nil {
			err = e.verify(buf.Bytes())
		}
		rep.op(err)
		if err == nil {
			e.want = maphash.Bytes(hashSeed, buf.Bytes())
		}
	}
	return s, pool, su, nil
}

func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func okSample(s sample) bool { return s.err == nil }

func runServe(ctx context.Context, cfg config, rep *report) error {
	client := newClient(cfg.workers)
	defer client.CloseIdleConnections()
	s, pool, su, err := serveStart(cfg, client, rep)
	if err != nil {
		return err
	}
	defer s.close()
	var samples []sample
	var allocs uint64
	elapsed := 0.0
	for i := 0; i < serveSegments; i++ {
		a0 := allocatedBytes()
		t0 := time.Now()
		samples = append(samples, closedLoop(cfg, client, s.url, pool, cfg.budget()/serveSegments, nil, -1, nil)...)
		elapsed += time.Since(t0).Seconds()
		allocs += allocatedBytes() - a0
		if err := su.again(); err != nil {
			return err
		}
	}
	rep.set("peak_rss_mb", peakRSSMB()) // before the held-out captures, which would set the peak
	ok := 0
	for _, sm := range samples {
		rep.op(sm.err)
		if sm.err == nil {
			ok++
		}
	}
	lat := latenciesMS(samples, okSample)
	rep.set("traces_per_s", float64(ok)/elapsed)
	rep.set("alloc_mb_per_op", float64(allocs)/float64(len(samples))/1e6)
	rep.set("latency_p50_ms", median(lat))
	rep.set("latency_p99_ms", quantile(lat, 0.99))
	_, err = setCommon(rep, su.median(), s.model, cfg)
	return err
}

// scrape reads the service's Prometheus exposition into a map keyed by
// series name with labels.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

const (
	promRunSum    = `emsim_request_duration_seconds_sum{endpoint="simulate"}`
	promRunCount  = `emsim_request_duration_seconds_count{endpoint="simulate"}`
	promRejected  = "emsim_requests_rejected_total"
	promCancelled = "emsim_requests_cancelled_total"
	promCycles    = "emsim_simulated_cycles_total"
)

// tracedServe alternates untraced and traced closed-loop segments; the
// traced ones record a client span per request and scrape /metrics
// before and after, so server-side run time separates from HTTP/JSON.
func tracedServe(ctx context.Context, cfg config, rep *report) error {
	client := newClient(cfg.workers)
	defer client.CloseIdleConnections()
	s, pool, _, err := serveStart(cfg, client, rep)
	if err != nil {
		return err
	}
	defer s.close()
	tr := newTracer()
	seg := cfg.budget() / 4
	var untraced, traced []sample
	delta := map[string]float64{}
	var op int64
	for i := 0; i < 2; i++ {
		untraced = append(untraced, closedLoop(cfg, client, s.url, pool, seg, nil, -1, nil)...)
		before, err := scrape(client, s.url)
		if err != nil {
			return err
		}
		id := tr.begin("serve.segment", -1, int64(i), 0)
		traced = append(traced, closedLoop(cfg, client, s.url, pool, seg, tr, id, &op)...)
		tr.end(id)
		after, err := scrape(client, s.url)
		if err != nil {
			return err
		}
		for _, k := range []string{promRunSum, promRunCount, promRejected, promCancelled, promCycles} {
			delta[k] += after[k] - before[k]
		}
	}
	for _, sm := range append(untraced, traced...) {
		rep.op(sm.err)
	}
	mean := func(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
	isSignal := func(sm sample) bool { return sm.err == nil && pool[sm.entry].signal }
	isStats := func(sm sample) bool { return sm.err == nil && !pool[sm.entry].signal }
	clientMean := mean(latenciesMS(traced, okSample))
	runMean := 1e3 * delta[promRunSum] / delta[promRunCount]
	kb, nsig := 0.0, 0
	for _, sm := range traced {
		if isSignal(sm) {
			kb += float64(sm.bytes) / 1e3
			nsig++
		}
	}
	rep.set("serve.latency_p50_ms.signal", median(latenciesMS(traced, isSignal)))
	rep.set("serve.latency_p50_ms.stats", median(latenciesMS(traced, isStats)))
	rep.set("serve.run_ms_mean", runMean)
	rep.set("serve.http_json_ms_mean", clientMean-runMean)
	rep.set("serve.response_kb_mean.signal", kb/float64(nsig))
	rep.set("serve.rejected", delta[promRejected])
	rep.set("serve.cancelled", delta[promCancelled])
	rep.set("serve.sim_cycles_per_request", delta[promCycles]/delta[promRunCount])
	rep.set("bench.trace_overhead", clientMean/mean(latenciesMS(untraced, okSample))-1)
	return tr.write(cfg.traceOut, envHeader(cfg))
}
