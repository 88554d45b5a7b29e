package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dve"
	idve "dve/internal/dve"
	"dve/internal/experiments"
	"dve/internal/results"
	"dve/internal/serve"
	"dve/internal/topology"
	"dve/internal/workload"
)

// fabricProtocols are the five protocols of the paper's performance matrix.
var fabricProtocols = []topology.Protocol{
	topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
	topology.ProtoDynamic, topology.ProtoIntelMirror,
}

// fabricServer is one in-process solo sweep service on a loopback port with
// a fresh result cache, and the benchmark's single client connection to it.
type fabricServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
	dir    string
}

// startServer builds a server whose cells run at scale over a fresh cache
// directory, and returns it with its readiness time: from opening the
// cache until /readyz answers.
func (b *bench) startServer(n int, scale experiments.Scale) (*fabricServer, time.Duration, error) {
	dir := filepath.Join(b.c.workdir, fmt.Sprintf("fabric-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	store, err := results.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{
		Runner:     experiments.Runner{Scale: scale, Cache: store},
		Workers:    runtime.NumCPU(),
		QueueDepth: 2 * len(fabricProtocols) * len(experiments.Suite()),
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	f := &fabricServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		dir:    dir,
	}
	go func() {
		defer close(f.served)
		f.hs.Serve(ln)
	}()
	srv.Start()
	if _, err := f.get("/readyz", http.StatusOK); err != nil {
		f.stop()
		return nil, 0, err
	}
	ready := time.Since(t0)
	b.sp.add("serve.ready", 0, t0, t0.Add(ready))
	return f, ready, nil
}

// stop drains the service, closes the listener and connections, waits for
// the HTTP server to return and removes the cache directory.
func (f *fabricServer) stop() error {
	f.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	<-f.served
	f.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(f.dir))
}

// get fetches path and returns the body, failing unless the status is want.
func (f *fabricServer) get(path string, want int) ([]byte, error) {
	resp, err := f.client.Get(f.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// sweepSample is one fabric sweep as the client saw it.
type sweepSample struct {
	host      hostSample // POST /run until the last /result arrives
	post      float64    // POST /run round trip, seconds
	cellLat   []float64  // per cell: POST sent until the cell is seen done
	queueWait []float64  // per cell: POST sent until the cell is seen running
	cellRun   []float64  // per cell: seen running until seen done
	gets      []float64  // per cell: GET /result round trip
	results   []*idve.Result
}

// runCell is the POST /run response's per-cell entry.
type runCell struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	Key      string `json:"key"`
	Status   string `json:"status"`
}

// watchCell is a cell's state in a /watch event.
type watchCell struct {
	Key    string `json:"key"`
	Status string `json:"status"`
}

// watchData is the payload of every /watch event kind: "cell" events
// carry one cell, snapshots carry them all.
type watchData struct {
	Cell  *watchCell  `json:"cell"`
	Cells []watchCell `json:"cells"`
}

// sweep submits the matrix, follows /watch until it is done, then fetches
// and checks every result. label prefixes the cell names the results are
// checked under.
func (b *bench) sweep(f *fabricServer, workloads, protocols []string, label string) (sweepSample, error) {
	var s sweepSample
	reqBody, err := json.Marshal(map[string][]string{"workloads": workloads, "protocols": protocols})
	if err != nil {
		return s, err
	}
	m := startMeter()
	tPost := m.t0
	resp, err := f.client.Post(f.base+"/run", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return s, err
	}
	var rr struct {
		Sweep uint64    `json:"sweep"`
		Cells []runCell `json:"cells"`
		Error string    `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("POST /run: status %d: %v %s", resp.StatusCode, err, rr.Error)
	}
	tPosted := time.Now()
	s.post = tPosted.Sub(tPost).Seconds()

	running, done, status, err := f.watch(rr.Sweep)
	if err != nil {
		return s, err
	}
	tWatched := time.Now()
	getSpans := make([][2]time.Time, 0, len(rr.Cells))
	for _, cell := range rr.Cells {
		tg := time.Now()
		body, err := f.get("/result/"+cell.Key, http.StatusOK)
		te := time.Now()
		s.gets = append(s.gets, te.Sub(tg).Seconds())
		getSpans = append(getSpans, [2]time.Time{tg, te})
		name := label + cell.Workload + "/" + cell.Protocol
		if st := status[cell.Key]; st != "done" {
			b.v.attempted++
			b.v.fail(name, "cell ended %q: %v", st, err)
			continue
		}
		var res idve.Result
		if err == nil {
			err = json.Unmarshal(body, &res)
		}
		if b.v.check(name, &res, err, true) {
			s.results = append(s.results, &res)
		}
	}
	s.host = m.stop()

	sweepSpan := b.sp.add("sweep", 0, tPost, tPost.Add(s.host.wall))
	b.sp.add("serve.post_run", sweepSpan, tPost, tPosted)
	b.sp.add("serve.watch", sweepSpan, tPosted, tWatched)
	for _, g := range getSpans {
		b.sp.add("results.get", sweepSpan, g[0], g[1])
	}
	for _, cell := range rr.Cells {
		d, ok := done[cell.Key]
		if !ok {
			continue
		}
		s.cellLat = append(s.cellLat, d.Sub(tPost).Seconds())
		cs := b.sp.add("cell "+label+cell.Workload+"/"+cell.Protocol, sweepSpan, tPost, d)
		if r, ok := running[cell.Key]; ok {
			s.queueWait = append(s.queueWait, r.Sub(tPost).Seconds())
			s.cellRun = append(s.cellRun, d.Sub(r).Seconds())
			b.sp.add("serve.queue_wait", cs, tPost, r)
			b.sp.add("experiments.cell_run", cs, r, d)
		}
	}
	return s, nil
}

// watch follows GET /watch/<sweep> until the sweep is done and returns when
// each cell was first seen running and first seen terminal, and its final
// status.
func (f *fabricServer) watch(sweep uint64) (running, done map[string]time.Time, status map[string]string, err error) {
	resp, err := f.client.Get(fmt.Sprintf("%s/watch/%d", f.base, sweep))
	if err != nil {
		return nil, nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, nil, fmt.Errorf("GET /watch: status %d", resp.StatusCode)
	}
	running, done, status = map[string]time.Time{}, map[string]time.Time{}, map[string]string{}
	observe := func(c watchCell, now time.Time) {
		status[c.Key] = c.Status
		switch c.Status {
		case "queued":
		case "running":
			if _, ok := running[c.Key]; !ok {
				running[c.Key] = now
			}
		default: // done, failed, cached, rejected: terminal
			if _, ok := done[c.Key]; !ok {
				done[c.Key] = now
			}
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20) // a snapshot lists every cell on one line
	event := ""
	for sc.Scan() {
		line := sc.Text()
		now := time.Now()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var d watchData
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				return nil, nil, nil, fmt.Errorf("watch %s event: %w", event, err)
			}
			if d.Cell != nil {
				observe(*d.Cell, now)
			}
			for _, c := range d.Cells {
				observe(c, now)
			}
			switch event {
			case "done":
				// Read the stream to its end so the connection is reused.
				_, err := io.Copy(io.Discard, resp.Body)
				return running, done, status, err
			case "end":
				return nil, nil, nil, errors.New("watch: server closed the stream before the sweep was done")
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	return nil, nil, nil, errors.New("watch: stream ended before the sweep was done")
}

// runFabric measures the fabric-sweep workload: the whole suite under all
// five protocols, submitted to a fresh solo server per sample.
func (b *bench) runFabric() error {
	c := b.c
	// The service resolves workloads by name with their suite seeds, so
	// the seed cannot reach the cells; it only picks the cell checked
	// against a direct run. The submission order stays fixed: the median
	// cell latency depends on which cells queue first.
	rng := rand.New(rand.NewSource(c.seed))
	suite := experiments.Suite()
	workloads := make([]string, len(suite))
	for i, s := range suite {
		workloads[i] = s.Name
	}
	protocols := make([]string, len(fabricProtocols))
	for i, p := range fabricProtocols {
		protocols[i] = p.String()
	}
	cellOps := c.fabricScale.WarmupOps + c.fabricScale.MeasureOps
	cells := len(workloads) * len(protocols)
	sweepOps := float64(cellOps) * float64(cells)

	// The one untimed run of the process: a seed-chosen cell on a
	// partitionable protocol, run directly on the serial engine. Every
	// sweep's copy of that cell must reproduce it exactly.
	refSpec := suite[rng.Intn(len(suite))]
	refProto := []topology.Protocol{topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
		topology.ProtoIntelMirror}[rng.Intn(4)]
	refCell := refSpec.Name + "/" + refProto.String()
	refRun := func(mode idve.EngineMode) func() (*idve.Result, error) {
		return func() (*idve.Result, error) {
			return idve.Run(refSpec, idve.RunConfig{Cfg: topology.Default(refProto),
				WarmupOps: c.fabricScale.WarmupOps, MeasureOps: c.fabricScale.MeasureOps, Engine: mode})
		}
	}
	res, _, err := b.timedRun("run.reference", refRun(idve.EngineSerial))
	b.v.check(refCell, res, err, false)
	fmt.Fprintf(b.info, "# reference %s fingerprint %s\n", refCell, b.v.fp[refCell])

	servers := 0
	var readies []float64 // server start until /readyz answers
	oneSweep := func() (sweepSample, error) {
		f, ready, err := b.startServer(servers, c.fabricScale)
		servers++
		if err != nil {
			return sweepSample{}, err
		}
		readies = append(readies, ready.Seconds())
		runtime.GC()
		s, err := b.sweep(f, workloads, protocols, "")
		return s, errors.Join(err, f.stop())
	}

	if c.trace {
		if err := b.fabricTraced(oneSweep, refRun, refSpec, refProto, uint64(cellOps)); err != nil {
			return err
		}
		b.m.set("serve.ready_s", median(readies))
		return nil
	}

	// Set-up: a fresh server until /readyz answers, then one minimal run
	// (no warmup, one op per thread) of a fixed cell: the construction,
	// drain and audit every cell pays. Readiness alone is a loopback round
	// trip that, on a virtual machine, swings between processes by more
	// than any bound. The cell is fixed, not seed-chosen, because
	// construction cost follows the workload's footprint: the first suite
	// workload under deny, which also builds the replica directories. As on
	// the simulation workloads, set-ups go back to back with no forced GC.
	setupSpec, setupCfg := suite[0], topology.Default(topology.ProtoDeny)
	setupCell := "setup " + setupSpec.Name + "/" + setupCfg.Protocol.String()
	var setups []float64
	for i := 0; i < c.setupReps; i++ {
		t0 := time.Now()
		f, _, err := b.startServer(servers, c.fabricScale)
		servers++
		if err != nil {
			return err
		}
		res, err := dve.Simulate(setupSpec, setupCfg, dve.SimOptions{MeasureOps: uint64(setupCfg.TotalCores())})
		t1 := time.Now()
		b.sp.add("setup", 0, t0, t1)
		b.v.check(setupCell, res, err, true)
		setups = append(setups, t1.Sub(t0).Seconds())
		if err := f.stop(); err != nil {
			return err
		}
	}

	var h hostSamples
	var cellLat []float64
	start := time.Now()
	for len(h.walls) < c.minSamples || time.Since(start).Seconds() < c.seconds {
		s, err := oneSweep()
		if err != nil {
			return err
		}
		h.add(s.host, sweepOps)
		cellLat = append(cellLat, s.cellLat...)
	}
	b.setHostMetrics(h, setups)
	b.m.set("cell_p50_s", median(cellLat))
	fmt.Fprintf(b.info, "# samples: %d sweeps of %d cells x %d ops, %d server set-ups\n",
		len(h.walls), cells, cellOps, len(setups))
	return nil
}

// fabricTraced is the traced run of the fabric workload: worker speed-up
// on the reference cell, one plain sweep, then sweeps under the CPU
// profiler until the window has passed and enough samples are in.
func (b *bench) fabricTraced(oneSweep func() (sweepSample, error),
	refRun func(idve.EngineMode) func() (*idve.Result, error), refSpec workload.Spec, refProto topology.Protocol,
	cellOps uint64) error {
	refCell := refSpec.Name + "/" + refProto.String()
	start := time.Now()
	var serial, plain []float64
	for i := 0; i < 3; i++ {
		res, hs, err := b.timedRun("run.serial", refRun(idve.EngineSerial))
		b.v.check(refCell, res, err, false)
		serial = append(serial, hs.wall.Seconds())
		res, hs, err = b.timedRun("run", refRun(idve.EngineAuto))
		b.v.check(refCell, res, err, true)
		plain = append(plain, hs.wall.Seconds())
	}
	b.m.set("sim.worker_speedup", median(serial)/median(plain))

	first, err := oneSweep()
	if err != nil {
		return err
	}
	if len(first.results) == 0 {
		return fmt.Errorf("no cell of the plain sweep succeeded")
	}
	all := []sweepSample{first}
	profiled, lc, err := b.profile(start, func() (float64, error) {
		s, err := oneSweep()
		all = append(all, s)
		return s.host.wall.Seconds(), err
	})
	if err != nil {
		return err
	}
	b.setLayers(lc, len(profiled))
	b.m.set("trace_overhead", median(profiled)/first.host.wall.Seconds())
	b.setCounts(first.results, cellOps)

	var post, queueWait, cellLat, cellRun, gets []float64
	for _, s := range all {
		post = append(post, s.post)
		queueWait = append(queueWait, s.queueWait...)
		cellLat = append(cellLat, s.cellLat...)
		cellRun = append(cellRun, s.cellRun...)
		gets = append(gets, s.gets...)
	}
	b.m.set("serve.post_run_s", median(post))
	b.m.set("serve.queue_wait_p50_s", median(queueWait))
	b.m.set("serve.cell_p90_s", quantile(cellLat, 0.9))
	b.m.set("experiments.cell_run_p50_s", median(cellRun))
	b.m.set("results.get_p50_s", median(gets))
	fmt.Fprintf(b.info, "# traced: %d profiled sweeps, %d profile samples over %.2f CPU s; cell p90 has %d cells beyond it (%d needed to count as measured)\n",
		len(profiled), lc.samples, float64(lc.total)/1e9, tailSamples(0.9, len(cellLat)), minTail)
	return b.runProbes(refSpec, topology.Default(refProto))
}
