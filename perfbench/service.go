package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"vanetsim"
	svc "vanetsim/internal/service"
	"vanetsim/internal/service/cache"
	"vanetsim/internal/service/canon"
)

// Shape of the service workload's request stream. Each pass is a
// barrier: its hits target only configurations completed before it
// began, so every hit is a genuine cache hit.
const (
	svcWorkers     = 2    // vanetsimd job workers; two clients, ≤ nproc
	svcMisses      = 8    // fresh trial-1 configs per pass
	svcHitsPerMiss = 20   // half resubmits, half GET /v1/results
	svcWarm        = 8    // configs completed before timing starts
	svcFiller      = 2048 // extra entries in the pre-populated cache dir
	svcSetups      = 31   // timed start-ups per run

	// The study is TDMA Trial 1, whose measurements do not depend on the
	// seed, so tolerance alone never asks for more replications: the
	// resubmission also raises min_reps, and re-simulates exactly the
	// seeds the first study did not run.
	studyMinReps   = 4
	restudyMinReps = 12
	studyMaxReps   = 16
)

// trialSimS is the simulated time of every trial-1 request the
// workload sends (they leave duration_s at its default).
var trialSimS = float64(vanetsim.Trial1().Duration)

// recorded is what the benchmark knows about a completed configuration.
type recorded struct {
	body   string // request body, for resubmission
	digest [32]byte
	size   int
}

// service is a closed loop of two clients against an in-process
// vanetsimd on a loopback listener.
type service struct {
	seed uint64
	dir  string // cache directory

	srv    *svc.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client

	mu    sync.Mutex
	known map[string]recorded // canonical hash → recorded artifact
	pool  []string            // hit targets, in stream order

	// Traced-pass observations.
	hashUS, getUS, fetchMS, waitMS, jobMS []float64
	openS                                 []float64
	before, after                         map[string]float64 // /metrics around the traced pass
}

func newService(seed uint64, dir string) workload {
	return &service{
		seed:   seed,
		dir:    filepath.Join(dir, fmt.Sprintf("service-cache-%d", os.Getpid())),
		known:  make(map[string]recorded),
		client: &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
}

// derive mixes the workload seed with a stream position into a nonzero
// request seed (splitmix64 finalizer).
func derive(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 ^ p
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	if x == 0 {
		x = 1
	}
	return x
}

// Stream tags for derive.
const (
	tagWarm uint64 = iota + 1
	tagMiss
	tagStudy
	tagHits
	tagFiller
)

func trialBody(seed uint64, telemetry bool) string {
	tel := ""
	if telemetry {
		tel = `,"telemetry":true`
	}
	return fmt.Sprintf(`{"kind":"trial","trial":{"trial":1,"seed":%d%s}}`, seed, tel)
}

func studyBody(seed uint64, tol float64, minReps int) string {
	return fmt.Sprintf(`{"kind":"replication","replication":{"trial":{"trial":1,"seed":%d},"tolerance":%g,"min_reps":%d,"max_reps":%d}}`,
		seed, tol, minReps, studyMaxReps)
}

// canonical decodes, canonicalises and hashes a request body as the
// daemon does, returning the hash and the artifact header it implies.
func canonical(body string) (hash, header string, err error) {
	req, err := canon.Decode(strings.NewReader(body))
	if err != nil {
		return "", "", err
	}
	c, err := canon.Canonicalize(req)
	if err != nil {
		return "", "", err
	}
	var h strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(string(c.AppendBinary(nil)), "\n"), "\n") {
		h.WriteString("# " + line + "\n")
	}
	return c.Hash().String(), h.String(), nil
}

// setup starts a daemon, completes the warm configurations and fills
// the cache dir with filler entries, stops it, then times cache.Open on
// the populated dir and, separately, full start-ups: service.New (which
// rebuilds the index), the listener, and the first healthy /healthz.
// Each timed call starts on a freshly collected heap.
func (s *service) setup(b *bench) error {
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	if err := s.start(); err != nil {
		return err
	}
	for k := 0; k < svcWarm; k++ {
		hash, _, err := s.submit(b, trialBody(derive(s.seed, tagWarm, uint64(k)), false), missOp, 0, 0, nil)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		s.pool = append(s.pool, hash)
	}
	filler := s.known[s.pool[0]]
	data, err := s.get(s.pool[0])
	if err != nil || len(data) != filler.size {
		return fmt.Errorf("warm-up fetch: %v", err)
	}
	for k := 0; k < svcFiller; k++ {
		key := sha256.Sum256(strconv.AppendUint(nil, derive(s.seed, tagFiller, uint64(k)), 10))
		if err := s.srv.Cache().Put(hex.EncodeToString(key[:]), data); err != nil {
			return fmt.Errorf("filler: %w", err)
		}
	}
	if err := s.stop(); err != nil {
		return err
	}

	for k := 0; k < svcSetups; k++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := cache.Open(s.dir, 0); err != nil {
			return err
		}
		s.openS = append(s.openS, time.Since(t0).Seconds())
	}
	for k := 0; k < svcSetups; k++ {
		runtime.GC()
		t0 := time.Now()
		if err := s.start(); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		if k < svcSetups-1 {
			if err := s.stop(); err != nil {
				return err
			}
		}
	}
	return nil
}

// start creates the daemon on the cache dir and serves it on a loopback
// listener, returning once /healthz answers 200.
func (s *service) start() error {
	srv, err := svc.New(svc.Config{CacheDir: s.dir, Workers: svcWorkers})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan struct{})
	s.base = "http://" + ln.Addr().String()
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(ln)
	}(s.hs, s.served)
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("vanetsimd not healthy after 10 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, drains the daemon's jobs and waits for
// the serving goroutine to exit.
func (s *service) stop() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.hs, s.srv = nil, nil
	return err
}

func (s *service) close() {
	s.stop()
	os.RemoveAll(s.dir)
}

// svcEvent is one NDJSON line of a /v1/run response.
type svcEvent struct {
	Event  string `json:"event"`
	Hash   string `json:"hash"`
	Cached bool   `json:"cached"`
	Bytes  int    `json:"bytes"`
	Error  string `json:"error"`
}

// runOutcome is a parsed /v1/run stream with client-side stamps.
type runOutcome struct {
	accepted, done svcEvent
	wait, job      time.Duration // accepted → first progress → done
}

// post submits a run request and reads its NDJSON stream to the end,
// calling running (when not nil) at the first progress line, once the
// job is simulating on a worker.
func (s *service) post(body string, running func()) (runOutcome, error) {
	var out runOutcome
	resp, err := s.client.Post(s.base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("POST /v1/run: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var tAccepted, tFirst time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e svcEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return out, fmt.Errorf("POST /v1/run: bad event %q: %v", sc.Text(), err)
		}
		now := time.Now()
		switch e.Event {
		case "accepted":
			out.accepted, tAccepted = e, now
		case "progress":
			if tFirst.IsZero() {
				tFirst = now
				out.wait = now.Sub(tAccepted)
				if running != nil {
					running()
				}
			}
		case "done":
			out.done = e
			if !tFirst.IsZero() {
				out.job = now.Sub(tFirst)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	switch {
	case out.done.Event != "done":
		return out, errors.New("POST /v1/run: stream ended without done")
	case out.done.Error != "":
		return out, fmt.Errorf("POST /v1/run: job failed: %s", out.done.Error)
	}
	return out, nil
}

// get fetches a cached artifact.
func (s *service) get(hash string) ([]byte, error) {
	resp, err := s.client.Get(s.base + "/v1/results/" + hash)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/results: %s", resp.Status)
	}
	return data, nil
}

// scrape reads the service_* counters from /metrics.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm reads unlabelled samples of the Prometheus text format.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// verifyFresh checks a freshly built artifact against its stream: the
// length the done event announced, and the canonical header of the
// request that produced it.
func verifyFresh(body []byte, bytes int, header string) error {
	if len(body) != bytes {
		return fmt.Errorf("artifact is %d bytes, stream announced %d", len(body), bytes)
	}
	if !strings.HasPrefix(string(body), header+"\n") {
		return errors.New("artifact header is not the request's canonical encoding")
	}
	return nil
}

// verifyHit checks a served artifact against the one recorded when its
// configuration was a miss.
func verifyHit(rec recorded, body []byte) error {
	if len(body) != rec.size || sha256.Sum256(body) != rec.digest {
		return fmt.Errorf("artifact (%d bytes) differs from the fresh run's (%d bytes)", len(body), rec.size)
	}
	return nil
}

// submit posts a fresh configuration as an operation of the given
// class, waits for its job, fetches the artifact (a hit operation) and
// records it under its hash. running is post's.
func (s *service) submit(b *bench, body string, class opClass, trace, parent int64, running func()) (string, []byte, error) {
	hash, header, err := s.timedCanonical(b, body)
	if err != nil {
		b.fail("canonicalise %s: %v", body, err)
		return "", nil, err
	}
	var out runOutcome
	b.op(class, "POST /v1/run (fresh)", trace, parent, func() error {
		out, err = s.post(body, running)
		if err == nil && (out.accepted.Cached || out.done.Cached || out.done.Hash != hash) {
			err = fmt.Errorf("fresh config answered cached=%v hash=%s, want a miss on %s", out.done.Cached, out.done.Hash, hash)
		}
		return err
	})
	if err != nil {
		return "", nil, err
	}
	var data []byte
	s.fetch(b, "GET /v1/results (fresh)", trace, parent, func() error {
		data, err = s.get(hash)
		if err == nil {
			err = verifyFresh(data, out.done.Bytes, header)
		}
		return err
	})
	if err != nil {
		return "", nil, err
	}
	s.mu.Lock()
	s.known[hash] = recorded{body: body, digest: sha256.Sum256(data), size: len(data)}
	s.mu.Unlock()
	if b.traced() {
		s.mu.Lock()
		s.waitMS = append(s.waitMS, float64(out.wait)/1e6)
		s.jobMS = append(s.jobMS, float64(out.job)/1e6)
		s.mu.Unlock()
		if i := strings.Index(string(data), "\nTelemetry:\n"); i >= 0 {
			b.observeSim(out.job, string(data[i:]))
		}
	}
	return hash, data, nil
}

// fetch times a GET as a hit operation, recording its latency for
// service.fetch_ms on the traced pass.
func (s *service) fetch(b *bench, name string, trace, parent int64, f func() error) {
	d := b.op(hitOp, name, trace, parent, f)
	if b.traced() {
		s.mu.Lock()
		s.fetchMS = append(s.fetchMS, float64(d)/1e6)
		s.mu.Unlock()
	}
}

// timedCanonical is canonical, timed for canon.hash_us on the traced
// pass.
func (s *service) timedCanonical(b *bench, body string) (string, string, error) {
	t0 := time.Now()
	hash, header, err := canonical(body)
	if b.traced() {
		s.mu.Lock()
		s.hashUS = append(s.hashUS, float64(time.Since(t0))/1e3)
		s.mu.Unlock()
	}
	return hash, header, err
}

// hit resubmits (even k) or fetches (odd k) a completed configuration.
func (s *service) hit(b *bench, hash string, k int, trace, parent int64) {
	s.mu.Lock()
	rec := s.known[hash]
	s.mu.Unlock()
	if k%2 == 0 {
		b.op(hitOp, "POST /v1/run (hit)", trace, parent, func() error {
			if _, _, err := s.timedCanonical(b, rec.body); err != nil {
				return err
			}
			out, err := s.post(rec.body, nil)
			switch {
			case err != nil:
				return err
			case !out.done.Cached || out.done.Hash != hash || out.done.Bytes != rec.size:
				return fmt.Errorf("resubmit answered cached=%v hash=%s bytes=%d, want the cached %d bytes of %s",
					out.done.Cached, out.done.Hash, out.done.Bytes, rec.size, hash)
			}
			return nil
		})
		return
	}
	if b.traced() {
		t0 := time.Now()
		_, ok := s.srv.Cache().Get(hash)
		us := float64(time.Since(t0)) / 1e3
		s.mu.Lock()
		s.getUS = append(s.getUS, us)
		s.mu.Unlock()
		problem := ""
		if !ok {
			problem = "cache.Get: " + hash + " missing"
		}
		b.check(problem)
	}
	s.fetch(b, "GET /v1/results (hit)", trace, parent, func() error {
		data, err := s.get(hash)
		if err == nil {
			err = verifyHit(rec, data)
		}
		return err
	})
}

// studyRows counts the per-replication rows of a study artifact.
func studyRows(artifact []byte) int {
	_, table, ok := strings.Cut(string(artifact), "per-replication measurements:\n")
	if !ok {
		return 0
	}
	n := 0
	for _, line := range strings.Split(table, "\n")[1:] {
		if !strings.HasPrefix(line, "  ") {
			break
		}
		n++
	}
	return n
}

// studies runs the pass's replication request and its resubmission,
// checking through /metrics that the resubmission re-simulated exactly
// the seeds the first study had not run.
func (s *service) studies(b *bench, i int, trace int64) {
	seed := derive(s.seed, tagStudy, uint64(i))
	m0, err := s.scrape()
	if err != nil {
		b.fail("%v", err)
		return
	}
	t0 := time.Now()
	_, first, err := s.submit(b, studyBody(seed, 0.05, studyMinReps), studyOp, trace, trace, nil)
	t1 := time.Now()
	if err != nil {
		return
	}
	m1, err := s.scrape()
	if err != nil {
		b.fail("%v", err)
		return
	}
	t2 := time.Now()
	_, second, err := s.submit(b, studyBody(seed, 0.02, restudyMinReps), studyOp, trace, trace, nil)
	t3 := time.Now()
	if err != nil {
		return
	}
	m2, err := s.scrape()
	if err != nil {
		b.fail("%v", err)
		return
	}
	b.study(t1.Sub(t0).Seconds(), t3.Sub(t2).Seconds())
	n1, n2 := studyRows(first), studyRows(second)
	b.addSim(float64(n2) * trialSimS) // n1 first-study seeds, n2-n1 fresh ones
	b.check(studyProblem(n1, n2, m0, m1, m2))
}

// studyProblem checks the replication counters around a study of n1
// replications and its resubmission of n2: the first simulates all n1,
// the second recalls those n1 and simulates only the n2-n1 new seeds.
func studyProblem(n1, n2 int, m0, m1, m2 map[string]float64) string {
	const fresh, cached = "service_rep_fresh_total", "service_rep_cached_total"
	f1, c1 := m1[fresh]-m0[fresh], m1[cached]-m0[cached]
	f2, c2 := m2[fresh]-m1[fresh], m2[cached]-m1[cached]
	switch {
	case n1 != studyMinReps || n2 != restudyMinReps:
		return fmt.Sprintf("service: studies used %d and %d replications, want %d and %d", n1, n2, studyMinReps, restudyMinReps)
	case f1 != float64(n1) || c1 != 0:
		return fmt.Sprintf("service: first study simulated %v and recalled %v replications, want %d and 0", f1, c1, n1)
	case f2 != float64(n2-n1) || c2 != float64(n1):
		return fmt.Sprintf("service: resubmission simulated %v and recalled %v replications, want %d and %d", f2, c2, n2-n1, n1)
	}
	return ""
}

// pass runs one barrier-separated slice of the request stream on two
// closed-loop clients. Client 1 submits the pass's fresh configurations
// one at a time; while each is simulating on a worker, client 0 sends
// svcHitsPerMiss hits on configurations completed before the pass, and
// client 1 submits the next one only after those hits are answered. So
// every hit runs while a miss occupies a worker, however fast the host
// is that moment. Client 0 then runs the study and its resubmission on
// an otherwise idle daemon.
func (s *service) pass(b *bench, i int) {
	trace := b.tr.id()
	traced := b.traced()
	start := time.Now()
	rng := rand.New(rand.NewPCG(derive(s.seed, tagHits, uint64(i)), 0))
	s.mu.Lock()
	pool := append([]string(nil), s.pool...)
	s.mu.Unlock()
	hits := make([]string, svcMisses*svcHitsPerMiss)
	for k := range hits {
		hits[k] = pool[rng.IntN(len(pool))]
	}
	fresh := make([]string, svcMisses)

	if traced {
		m, err := s.scrape()
		if err != nil {
			b.fail("%v", err)
		}
		s.before = m
	}
	running := make(chan struct{})  // client 1 → 0: miss m is simulating
	answered := make(chan struct{}) // client 0 → 1: its hits for miss m are done
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for m := range fresh {
			<-running
			for k := m * svcHitsPerMiss; k < (m+1)*svcHitsPerMiss; k++ {
				s.hit(b, hits[k], k, trace, trace)
			}
			answered <- struct{}{}
		}
	}()
	go func() {
		defer wg.Done()
		for m := range fresh {
			// A miss that fails before it runs still releases its hits.
			signal := sync.OnceFunc(func() { running <- struct{}{} })
			body := trialBody(derive(s.seed, tagMiss, uint64(i), uint64(m)), traced)
			if hash, _, err := s.submit(b, body, missOp, trace, trace, signal); err == nil {
				fresh[m] = hash
				b.addSim(trialSimS)
			}
			signal()
			<-answered
		}
	}()
	wg.Wait()
	s.studies(b, i, trace)
	b.tr.add(trace, trace, 0, "service pass", start, time.Now())
	if traced {
		m, err := s.scrape()
		if err != nil {
			b.fail("%v", err)
		}
		s.after = m
		return
	}
	for _, hash := range fresh {
		if hash != "" {
			s.pool = append(s.pool, hash)
		}
	}
}

// layers reports the service-side per-layer metrics of the traced pass.
func (s *service) layers(b *bench, m map[string]float64) {
	m["canon.hash_us"] = median(s.hashUS)
	m["cache.get_us"] = median(s.getUS)
	m["cache.open_s"] = median(s.openS)
	m["service.fetch_ms"] = median(s.fetchMS)
	m["service.queue_wait_ms"] = median(s.waitMS)
	m["service.job_ms"] = median(s.jobMS)
	delta := func(name string) float64 { return s.after[name] - s.before[name] }
	m["service.cache_hits"] = delta("service_cache_hits_total")
	m["service.cache_misses"] = delta("service_cache_misses_total")
	m["service.coalesced"] = delta("service_coalesced_total")
	m["service.rep_cached"] = delta("service_rep_cached_total")
	m["service.rep_fresh"] = delta("service_rep_fresh_total")
	m["seqstop.reps_executed"] = m["service.rep_cached"] + m["service.rep_fresh"]
}
