package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/llvmir"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/tvd"
)

const (
	tvdClients = 2
	// tvdProject is the stored functions of a client's project, all of
	// them in every request.
	tvdProject = 15
	// tvdNewEvery puts one new function into every fourth request. The
	// other requests are rebuilds where nothing changed, so the median
	// request is served from the store (store.Get, decode, the wire) and
	// the tail is the requests whose new function is validated, certified
	// and stored. With a new function in every request, the median was a
	// cheap validation, which sits where the validation costs of the new
	// functions are spread widest, and it moved by a fifth between runs.
	// With one in four, a lap holds 312 requests and its tail (see
	// lapTail) is the 16th-slowest, where the new functions' costs are
	// close together; with one in three it was the 13th-slowest, at a
	// step from 107 ms to 61 ms in the reference costs, and moved by a
	// fifth between runs.
	tvdNewEvery  = 4
	tvdSetupReps = 3
	// tvdMaxMS leaves the one new function over a second in the
	// reference run (1.7 s; the next is 0.6 s) out of the lists. While it
	// runs it holds a CPU for seconds, so it set the latency of whatever
	// the other client sent meanwhile.
	tvdMaxMS = 1000
	// tvdWarmup runs the clients untimed first, so the page cache, the
	// heap and the connections are warm when measuring starts.
	tvdWarmup = 2 * time.Second
)

// daemon is one in-process tvd behind a loopback listener.
type daemon struct {
	srv      *tvd.Server
	http     *http.Server
	served   chan error
	addr     string
	storeDir string
}

func startDaemon(dir string) (*daemon, error) {
	d := &daemon{storeDir: filepath.Join(dir, "store"), served: make(chan error, 1)}
	work := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	srv, err := tvd.NewServer(tvd.ServerConfig{Workers: workers, StoreDir: d.storeDir, WorkDir: work})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.srv, d.addr = srv, ln.Addr().String()
	d.http = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, waits for in-flight batches, and joins the
// daemon's pool.
func (d *daemon) stop() error {
	d.srv.BeginDrain()
	err := d.http.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// tvdInputs are the workload's function sets, fixed for every seed: the
// smaller half of GCCLike(240) by instruction count, dealt in corpus
// order into the stored set and one new-function list per client. The
// stored set is the clients' projects, tvdProject functions each. The
// new-function lists leave out functions over tvdMaxMS and are cut to
// one length, so every client's lap holds the same number of requests.
type tvdInputs struct {
	stored  []corpus.Function
	project [tvdClients][]corpus.Function
	fresh   [tvdClients][]corpus.Function
}

func tvdSets(all []corpus.Function, ref *Reference) tvdInputs {
	small := tvdSmall(all)
	var in tvdInputs
	i := 0
	for _, f := range all {
		if !small[f.Name] {
			continue
		}
		if k := i % (tvdClients + 1); k == 0 {
			if c := len(in.stored) / tvdProject; c < tvdClients {
				in.stored = append(in.stored, f)
				in.project[c] = append(in.project[c], f)
			}
		} else {
			in.fresh[k-1] = append(in.fresh[k-1], f)
		}
		i++
	}
	n := len(all)
	for c := range in.fresh {
		in.fresh[c] = slices.DeleteFunc(in.fresh[c], func(f corpus.Function) bool {
			return ref.Functions[f.Name].FineMS > tvdMaxMS
		})
		n = min(n, len(in.fresh[c]))
	}
	for c := range in.fresh {
		in.fresh[c] = in.fresh[c][:n]
	}
	return in
}

func jobOf(f corpus.Function) tvd.JobRequest { return tvd.JobRequest{Fn: f.Name, IR: f.Src} }

// renamed is f under a new name: the same validation work under a new
// content address, so the store has never seen it.
func renamed(f corpus.Function, suffix string) corpus.Function {
	name := f.Name + suffix
	return corpus.Function{Name: name, Src: strings.ReplaceAll(f.Src, "@"+f.Name+"(", "@"+name+"(")}
}

// tvdSetup starts a daemon on an empty store and fills it with the stored
// set. It returns the running daemon and the fill's determinism counters.
func tvdSetup(dir string, ck *checks, ref *Reference, lr *layers) (*daemon, tvdInputs, counters, error) {
	t0 := time.Now()
	all := corpus.Generate(corpus.GCCLike(tvdCorpus))
	lr.set("corpus.generate_ms", msOf(time.Since(t0)))
	for _, f := range all {
		if _, err := llvmir.Parse(f.Src); err != nil {
			return nil, tvdInputs{}, counters{}, fmt.Errorf("corpus function %s: %w", f.Name, err)
		}
	}
	in := tvdSets(all, ref)
	d, err := startDaemon(dir)
	if err != nil {
		return nil, in, counters{}, err
	}
	req := &tvd.BatchRequest{Tenant: "fill", MaxTermNodes: maxTermNodes}
	for _, f := range in.stored {
		req.Jobs = append(req.Jobs, jobOf(f))
	}
	res, err := tvd.NewClient(d.addr).ValidateAll(req, nil)
	if err != nil {
		d.stop()
		return nil, in, counters{}, fmt.Errorf("filling the store: %w", err)
	}
	var rows []passRow
	for _, r := range res.Rows {
		c, _ := tv.ParseClass(r.Class)
		rows = append(rows, passRow{ResultRow: resultRow(r, c)})
	}
	verifyRows(ck, ref, rows, false)
	return d, in, countersOf(rows, res.Summary().SMTStats), nil
}

// clientStats is what one closed-loop client observed.
type clientStats struct {
	latency []time.Duration // send to last row, per request
	lap     []int           // lap through the client's new functions, per request
	lapLen  int             // requests in one client's lap
	// lapRates is rows per second over each whole lap of one client; the
	// merged stats hold each client's median instead.
	lapRates []float64
	// newLap is the lap of each new function's content address.
	newLap   map[string]int
	hitRow   []time.Duration // send to arrival, per stored row
	wire     []time.Duration // latency minus the server's batch wall
	queue    []time.Duration // started minus submitted, per new row
	busy     time.Duration   // validation time of new rows
	classes  []tv.Class
	rows     int
	hits     int
	rejected int
	requests int
	results  []*tvd.BatchResult // artifacts stripped; kept for the traced breakdown
	// unique holds the first row received per content address, with its
	// artifacts, for the certificate check.
	unique map[string]tvd.RowJSON
}

// rate is the phase's rows per second: the sum over clients of each
// client's median rate over its whole laps. A lap asks for the same work
// every time, so one stall on the host moves one lap's rate. Without a
// whole lap for every client it is the rows over the phase's wall time.
func (cs *clientStats) rate(wall time.Duration) float64 {
	if len(cs.lapRates) < tvdClients {
		return float64(cs.rows) / wall.Seconds()
	}
	sum := 0.0
	for _, r := range cs.lapRates {
		sum += r
	}
	return sum
}

// wholeLaps is the laps every client completed.
func (cs *clientStats) wholeLaps() map[int]bool {
	n := map[int]int{}
	for _, l := range cs.lap {
		n[l]++
	}
	whole := map[int]bool{}
	for l, c := range n {
		if c == tvdClients*cs.lapLen {
			whole[l] = true
		}
	}
	return whole
}

// lapTail is the median over laps of each lap's tail latency. Lap k is
// the requests of every client's k-th pass through its list of new
// functions, so every lap asks for the same work and holds the same
// number of requests, and the tail rule reads the same percentile in
// every run. Read over the whole phase, the request count moved across
// the p99 step of the tail rule with the host's speed, and the tail
// jumped between a cheap and an expensive new function. Without a
// whole lap it is the tail over all requests.
func (cs *clientStats) lapTail() Quantile {
	laps := map[int][]time.Duration{}
	for i, l := range cs.lap {
		laps[l] = append(laps[l], cs.latency[i])
	}
	var tails []Quantile
	for l := range cs.wholeLaps() {
		tails = append(tails, tail(ms(laps[l])))
	}
	if len(tails) == 0 {
		return tail(ms(cs.latency))
	}
	return medianQuantile(tails)
}

// runClient sends requests until the deadline. Each request rebuilds the
// client's project: its tvdProject stored functions, in a seeded order.
// Every tvdNewEvery-th request also holds, at a seeded place, one
// function the store has never seen, taken in turn from the client's own
// list (renamed on every lap through it). Every request thus carries the
// same hits and every seed asks for the same work. A hit's cost grows
// with its artifacts; with hits drawn from the whole stored set, the seed
// chose which hits went with which new function, and that moved the
// median latency by a fifth between seeds.
func runClient(c int, addr string, in tvdInputs, seed int64, deadline time.Time, trace bool,
	tag string, ck *checks, ref *Reference, mu *sync.Mutex) *clientStats {
	rng := rand.New(rand.NewSource(seed*int64(tvdClients+1) + int64(c)))
	fresh := in.fresh[c]
	project := append([]corpus.Function(nil), in.project[c]...)
	origin := map[string]string{}
	client := tvd.NewClient(addr)
	cs := &clientStats{unique: map[string]tvd.RowJSON{}, lapLen: len(fresh) * tvdNewEvery,
		newLap: map[string]int{}}
	var lapStart time.Time
	lapRows := 0
	for i := 0; time.Now().Before(deadline); i++ {
		req := &tvd.BatchRequest{Tenant: fmt.Sprintf("client%d", c), MaxTermNodes: maxTermNodes,
			Proofs: true, Trace: trace}
		rng.Shuffle(len(project), func(i, j int) { project[i], project[j] = project[j], project[i] })
		for _, f := range project {
			req.Jobs = append(req.Jobs, jobOf(f))
		}
		if i%tvdNewEvery == tvdNewEvery-1 {
			n := i / tvdNewEvery
			f := fresh[n%len(fresh)]
			nf := renamed(f, fmt.Sprintf("_%s%d_%d", tag, c, n/len(fresh)))
			origin[nf.Name] = f.Name
			req.Jobs = slices.Insert(req.Jobs, rng.Intn(len(req.Jobs)+1), jobOf(nf))
		}
		var last time.Time
		var hitArrivals []time.Time
		send := time.Now()
		res, err := client.Validate(req, func(rec telemetry.Record) {
			last = time.Now()
			if cached, _ := rec.Attrs["cached"].(bool); cached {
				hitArrivals = append(hitArrivals, last)
			}
		})
		cs.requests++
		mu.Lock()
		ck.attempt()
		if err != nil {
			var busy *tvd.ErrBusy
			if errors.As(err, &busy) {
				cs.rejected++
			}
			ck.fail("request %d of client %d: %v", i, c, err)
			mu.Unlock()
			continue
		}
		var rows []passRow
		for i, r := range res.Rows {
			if _, seen := cs.unique[r.Key]; !seen {
				cs.unique[r.Key] = r
			}
			res.Rows[i].Artifacts = nil
			cl, _ := tv.ParseClass(r.Class)
			row := resultRow(r, cl)
			if o, ok := origin[r.Fn]; ok {
				row.Fn = o
				cs.newLap[r.Key] = i / cs.lapLen
			}
			rows = append(rows, passRow{ResultRow: row})
			cs.classes = append(cs.classes, cl)
			if r.Cached {
				cs.hits++
			} else {
				cs.queue = append(cs.queue, time.Duration(r.StartedNS-r.SubmittedNS))
				cs.busy += time.Duration(r.DurationNS)
			}
		}
		verifyRows(ck, ref, rows, false)
		mu.Unlock()
		cs.rows += len(res.Rows)
		cs.latency = append(cs.latency, last.Sub(send))
		cs.lap = append(cs.lap, i/cs.lapLen)
		if i%cs.lapLen == 0 {
			lapStart, lapRows = send, 0
		}
		lapRows += len(res.Rows)
		if i%cs.lapLen == cs.lapLen-1 {
			cs.lapRates = append(cs.lapRates, float64(lapRows)/last.Sub(lapStart).Seconds())
		}
		for _, t := range hitArrivals {
			cs.hitRow = append(cs.hitRow, t.Sub(send))
		}
		if res.Stats != nil {
			cs.wire = append(cs.wire, last.Sub(send)-time.Duration(res.Stats.WallSeconds*float64(time.Second)))
		}
		cs.results = append(cs.results, res)
	}
	return cs
}

// resultRow is the part of a wire row the output checks read.
func resultRow(r tvd.RowJSON, c tv.Class) harness.ResultRow {
	row := harness.ResultRow{Fn: r.Fn, Class: c, Duration: time.Duration(r.DurationNS), Certified: r.Certified}
	if r.ProofErr != "" {
		row.ProofErr = errors.New(r.ProofErr)
	}
	return row
}

// loadPhase runs the closed-loop clients for d and merges what they saw.
// tag goes into the new functions' names, so phases never share one.
func loadPhase(d *daemon, in tvdInputs, seed int64, dur time.Duration, trace bool, tag string,
	ck *checks, ref *Reference) (*clientStats, time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := make([]*clientStats, tvdClients)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < tvdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = runClient(c, d.addr, in, seed, deadline, trace, tag, ck, ref, &mu)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	all := &clientStats{unique: map[string]tvd.RowJSON{}, lapLen: per[0].lapLen, newLap: map[string]int{}}
	for _, cs := range per {
		for k, r := range cs.unique {
			all.unique[k] = r
		}
		all.latency = append(all.latency, cs.latency...)
		all.lap = append(all.lap, cs.lap...)
		if len(cs.lapRates) > 0 {
			all.lapRates = append(all.lapRates, median(cs.lapRates))
		}
		for k, l := range cs.newLap {
			all.newLap[k] = l
		}
		all.hitRow = append(all.hitRow, cs.hitRow...)
		all.wire = append(all.wire, cs.wire...)
		all.queue = append(all.queue, cs.queue...)
		all.busy += cs.busy
		all.classes = append(all.classes, cs.classes...)
		all.rows += cs.rows
		all.hits += cs.hits
		all.rejected += cs.rejected
		all.requests += cs.requests
		all.results = append(all.results, cs.results...)
	}
	return all, wall
}

// checkResult is what checking the clients' certificates found.
type checkResult struct {
	reports   []*proof.CheckReport
	certified []int     // per report: certified rows it covers
	perFn     []float64 // per whole lap: check seconds per certified function
	took      time.Duration
	bytes     int64
}

// checkResults materializes one artifact set per distinct content
// address the clients received and checks them all, in groups: one per
// lap the phase holds whole (every client's new functions of that lap, so
// every group is the same work) and one for the rest (the projects, the
// warm-up and the partial laps). Each group is dealt round-robin into one
// directory per worker and its directories are checked concurrently (see
// checkDirs). A single check of everything moved by a quarter between
// runs when the host stalled during it; the median over laps does not.
func checkResults(dir string, unique map[string]tvd.RowJSON, lapOf map[string]int, whole map[int]bool) (*checkResult, error) {
	keys := make([]string, 0, len(unique))
	for k := range unique {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	groups := map[int][]string{}
	for _, k := range keys {
		g := -1
		if l, ok := lapOf[k]; ok && whole[l] {
			g = l
		}
		groups[g] = append(groups[g], k)
	}
	res := &checkResult{}
	for g, ks := range groups {
		parts := make([]tvd.BatchResult, workers)
		certified := make([]int, workers)
		n := 0
		for i, k := range ks {
			r := unique[k]
			parts[i%workers].Rows = append(parts[i%workers].Rows, r)
			if r.Certified {
				certified[i%workers]++
				n++
			}
			for _, a := range r.Artifacts {
				res.bytes += int64(len(a.Data))
			}
		}
		dirs := make([]string, workers)
		for i := range parts {
			dirs[i] = filepath.Join(dir, fmt.Sprint(g), fmt.Sprint(i))
			if err := tvd.MaterializeProofs(dirs[i], &parts[i]); err != nil {
				return nil, fmt.Errorf("materializing proofs: %w", err)
			}
		}
		reps, took, err := checkDirs(dirs...)
		if err != nil {
			return nil, err
		}
		res.reports = append(res.reports, reps...)
		res.certified = append(res.certified, certified...)
		res.took += took
		if g >= 0 {
			res.perFn = append(res.perFn, took.Seconds()/float64(max(1, n)))
		}
	}
	return res, nil
}

// storeLayers times store.Get over every key the daemon stored and
// store.Put of those entries into a fresh store.
func storeLayers(lr *layers, storeDir, freshDir string) error {
	st, err := store.Open(storeDir, nil)
	if err != nil {
		return err
	}
	fresh, err := store.Open(freshDir, nil)
	if err != nil {
		return err
	}
	var gets, puts []time.Duration
	for _, k := range st.Keys() {
		t0 := time.Now()
		e, ok := st.Get(k)
		gets = append(gets, time.Since(t0))
		if !ok {
			return fmt.Errorf("store entry %s vanished", k.Hex())
		}
		t1 := time.Now()
		if err := fresh.Put(k, e); err != nil {
			return err
		}
		puts = append(puts, time.Since(t1))
	}
	g := ms(gets)
	lr.set("store.get_p50_ms", median(g))
	lr.set("store.get_p99_ms", percentile(g, 99).Value)
	lr.set("store.put_p50_ms", median(ms(puts)))
	usage := st.Usage()
	lr.set("store.bytes", float64(usage))
	if n := len(gets); n > 0 {
		lr.set("store.entry_kib", float64(usage)/1024/float64(n))
	}
	return nil
}

// runTVD runs the tvd workload.
func runTVD(o opts, ref *Reference, out *output) error {
	var d *daemon
	var in tvdInputs
	var setups []float64
	var fills []counters
	for r := 0; r < tvdSetupReps; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		dir := filepath.Join(o.work, "daemon")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		var fill counters
		var err error
		d, in, fill, err = tvdSetup(dir, out.checks, ref, out.layers)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fills = append(fills, fill)
	}
	out.setupS = median(setups)
	out.record["counters"] = fills
	out.record["nondeterministic"] = nondeterministic(fills)

	warm, _ := loadPhase(d, in, o.seed, tvdWarmup, false, "w", out.checks, ref)
	ph0 := samplePhase()
	hw := watchHeap(10 * time.Millisecond)
	var cs, untraced *clientStats
	var wall, untracedWall time.Duration
	if o.trace {
		// Half the phase untraced, half traced, with the same request
		// sequence: the rate difference is the tracing overhead.
		untraced, untracedWall = loadPhase(d, in, o.seed, o.seconds/2, false, "u", out.checks, ref)
		cs, wall = loadPhase(d, in, o.seed, o.seconds/2, true, "t", out.checks, ref)
	} else {
		cs, wall = loadPhase(d, in, o.seed, o.seconds, false, "c", out.checks, ref)
	}
	out.peakHeapMiB = hw.Stop()
	out.phase = ph0.to(samplePhase())
	if err := d.stop(); err != nil {
		return err
	}

	unique := cs.unique
	for k, r := range warm.unique {
		unique[k] = r
	}
	if untraced != nil {
		for k, r := range untraced.unique {
			unique[k] = r
		}
	}
	ck, err := checkResults(filepath.Join(o.work, "check"), unique, cs.newLap, cs.wholeLaps())
	if err != nil {
		return err
	}
	certified, rejects := 0, 0
	for i, rep := range ck.reports {
		verifyCheck(out.checks, rep, ck.certified[i])
		certified += ck.certified[i]
		rejects += len(rep.Rejections)
	}
	out.checkPerFn = ck.took.Seconds() / float64(max(1, certified))
	if len(ck.perFn) > 0 {
		out.checkPerFn = median(ck.perFn)
	}

	out.fnsPerS = cs.rate(wall)
	phaseRows := cs.rows
	if untraced != nil {
		phaseRows += untraced.rows
	}
	out.cpuPerFn = out.phase.CPU.Seconds() / float64(max(1, phaseRows))
	out.latP50 = median(ms(cs.latency))
	out.latTail = cs.lapTail()
	out.decidedFrac = decidedFrac(cs.classes)
	// The measured phase's solver work, per request: equal figures on
	// runs of different speed mean the host, not the program, moved.
	var phase smt.Stats
	for _, res := range cs.results {
		phase.Add(res.Summary().SMTStats)
	}
	perReq := func(n int64) float64 { return float64(n) / float64(max(1, cs.requests)) }
	out.record["phase_solver_per_request"] = map[string]float64{"queries": perReq(phase.Queries),
		"conflicts": perReq(phase.SATConflicts), "cache_hits": perReq(phase.CacheHits), "races": perReq(phase.Races)}
	out.record["requests"] = cs.requests
	out.record["rows"] = cs.rows

	if o.trace {
		lr := out.layers
		lr.rows = phaseRows
		var st smt.Stats
		m := telemetry.NewMetrics()
		for _, res := range cs.results {
			lr.spans.add(res.Trace)
			sum := res.Summary()
			st.Add(sum.SMTStats)
			if res.Stats != nil {
				for k, v := range res.Stats.Counters {
					m.Add(k, v)
				}
			}
		}
		lr.finishSpans()
		lr.solver(st, m)
		lr.set("proof.bytes_per_fn", float64(ck.bytes)/float64(max(1, certified)))
		lr.set("proof.check_ms", msOf(ck.took))
		lr.set("proof.check_rejects", float64(rejects))
		lr.set("store.hit_frac", frac(int64(cs.hits), int64(cs.rows)))
		lr.set("tvd.queue_p50_ms", median(ms(cs.queue)))
		lr.set("tvd.hit_row_p50_ms", median(ms(cs.hitRow)))
		lr.set("tvd.wire_ms", median(ms(cs.wire)))
		lr.set("tvd.rejected", float64(cs.rejected+untraced.rejected))
		lr.set("harness.busy_frac", cs.busy.Seconds()/(workers*wall.Seconds()))
		lr.set("trace.overhead_frac",
			(float64(untraced.rows)/untracedWall.Seconds())/(float64(cs.rows)/wall.Seconds())-1)
		if err := storeLayers(lr, d.storeDir, filepath.Join(o.work, "store-copy")); err != nil {
			return err
		}
	}
	return nil
}
