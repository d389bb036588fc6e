package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/engine"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
	"xtenergy/internal/xpowerd"
)

// daemon is the service: an in-process xpowerd.Server on a unix socket,
// over an engine whose disk tier lives in a fresh temp dir. A
// closed-loop connection sends registry repeats (memo reads) mixed with
// fresh inline programs (misses and CAS writes). The registry lookup,
// the engine and memo, and xpowerd's framing do the work. The run never
// calls engine.Default, so no state from other runs or from the user's
// cache is read.

// healthEvery is how often, in requests, the traced phase times a
// health round trip.
const healthEvery = 10

// daemon is one running server with its connections.
type daemon struct {
	dir     string
	memoDir string
	eng     *engine.Engine
	srv     *xpowerd.Server
	stopSrv context.CancelFunc
	served  chan error
	conn    *xpowerd.Client
}

// startDaemon serves a fresh engine from a new temp dir under root.
func startDaemon(root string) (*daemon, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, memoDir: filepath.Join(dir, "memo")}
	sock := filepath.Join(dir, "d.sock")
	if len(sock) > 100 {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("socket path %s is too long for a unix socket; use a shorter --workdir", sock)
	}
	if d.eng, err = engine.New(engine.Options{Dir: d.memoDir}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	xpowerd.SetEngine(d.eng)
	d.srv = xpowerd.New(xpowerd.Config{UnixPath: sock})
	if err := d.srv.Listen(); err != nil {
		xpowerd.SetEngine(nil)
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stopSrv, d.served = cancel, make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ctx) }()
	if d.conn, err = xpowerd.Dial("unix:"+sock, 5*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the connection, drains the server, waits for Serve to
// return and removes the temp dir.
func (d *daemon) stop() error {
	if d.conn != nil {
		d.conn.Close()
	}
	d.stopSrv()
	err := <-d.served
	xpowerd.SetEngine(nil)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// report is the in-process rendering of a request: the same xpowerd
// entry point the server answers it with.
func report(ctx context.Context, r *xpowerd.Request) (string, int, error) {
	switch r.Op {
	case xpowerd.OpEstimate:
		out, err := xpowerd.EstimateReport(ctx, xpowerd.EstimateParams{Workload: r.Workload, Fast: r.Fast})
		return out, xpowerd.StatusOK, err
	case xpowerd.OpSimulate:
		out, err := xpowerd.SimulateReport(ctx, xpowerd.SimulateParams{Workload: r.Workload, Source: r.Source, Vars: r.Vars})
		return out, xpowerd.StatusOK, err
	case xpowerd.OpLint:
		return xpowerd.LintReport(ctx, xpowerd.LintParams{Workload: r.Workload, Source: r.Source, Notes: r.Notes})
	}
	return "", xpowerd.StatusFailed, fmt.Errorf("unexpected op %q", r.Op)
}

// replayEngine makes the engine call the server makes for r and returns
// the rendering step, so the traced phase can time the two apart.
func replayEngine(ctx context.Context, e *engine.Engine, r *xpowerd.Request, w core.Workload) (func() (string, int), error) {
	cfg := procgen.Default()
	switch r.Op {
	case xpowerd.OpEstimate:
		tech := rtlpower.DefaultTechnology()
		if r.Fast {
			tech = rtlpower.FastTechnology()
		}
		a, _, err := e.Estimate(ctx, engine.EstimateSpec{Workload: w, Config: cfg, Tech: tech})
		if err != nil {
			return nil, err
		}
		return func() (string, int) { return a.Render(), xpowerd.StatusOK }, nil
	case xpowerd.OpSimulate:
		a, _, err := e.Simulate(ctx, engine.SimulateSpec{Workload: w, Config: cfg})
		if err != nil {
			return nil, err
		}
		return func() (string, int) { return a.Render(r.Vars), xpowerd.StatusOK }, nil
	case xpowerd.OpLint:
		a, _, err := e.Lint(ctx, engine.LintSpec{Workload: w, Config: cfg})
		if err != nil {
			return nil, err
		}
		return func() (string, int) {
			out, degraded := a.Render(r.Notes)
			if degraded {
				return out, xpowerd.StatusDegraded
			}
			return out, xpowerd.StatusOK
		}, nil
	}
	return nil, fmt.Errorf("unexpected op %q", r.Op)
}

// want is a request's expected response.
type want struct {
	out    string
	status int
}

func (w want) match(resp *xpowerd.Response, err error) bool {
	return err == nil && resp.Error == nil &&
		(resp.Status == xpowerd.StatusOK || resp.Status == xpowerd.StatusDegraded) &&
		resp.Status == w.status && resp.Output == w.out
}

func runDaemon(rc *runConfig) (res *result, err error) {
	ctx := context.Background()
	reg := registryRequests(workloads.Names())
	res = &result{layer: map[string]float64{}}
	var d *daemon
	var resps []*xpowerd.Response
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(filepath.Join(rc.workdir, "tmp")); err != nil {
			return nil, err
		}
		resps, err = warm(ctx, d, reg)
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	defer func() {
		if serr := d.stop(); err == nil && serr != nil {
			err = fmt.Errorf("daemon shutdown: %w", serr)
		}
	}()
	// The warm-up responses must already be the in-process rendering of
	// the same requests.
	wants, err := registryWants(ctx, reg)
	if err != nil {
		return nil, err
	}
	for k := range reg {
		if !wants[k].match(resps[k], nil) {
			return nil, fmt.Errorf("set-up response to %s %s differs from the in-process rendering", reg[k].Op, reg[k].Workload)
		}
	}
	return res, daemonLoad(ctx, rc, d, reg, wants, res)
}

// warm sends every registry request once.
func warm(ctx context.Context, d *daemon, reg []xpowerd.Request) ([]*xpowerd.Response, error) {
	resps := make([]*xpowerd.Response, len(reg))
	for k := range reg {
		var err error
		if resps[k], err = d.conn.Do(ctx, &reg[k]); err != nil {
			return nil, fmt.Errorf("set-up request %s %s: %w", reg[k].Op, reg[k].Workload, err)
		}
	}
	return resps, nil
}

// registryWants renders every registry request in-process (memo hits on
// the warmed engine).
func registryWants(ctx context.Context, reg []xpowerd.Request) ([]want, error) {
	wants := make([]want, len(reg))
	for k := range reg {
		out, st, err := report(ctx, &reg[k])
		if err != nil {
			return nil, err
		}
		wants[k] = want{out, st}
	}
	return wants, nil
}

// roundWants returns each request's expected response: the registry
// rendering for a repeat, and for a fresh request the rendering on a
// separate memory-only engine, so the daemon's engine first sees each
// fresh program over the wire, as a miss.
func roundWants(ctx context.Context, d *daemon, round []dreq, regWants []want) ([]want, error) {
	check, err := engine.New(engine.Options{})
	if err != nil {
		return nil, err
	}
	xpowerd.SetEngine(check)
	defer xpowerd.SetEngine(d.eng)
	wants := make([]want, len(round))
	for i := range round {
		r := &round[i]
		if r.Reg >= 0 {
			wants[i] = regWants[r.Reg]
			continue
		}
		out, st, err := report(ctx, &r.Req)
		if err != nil {
			return nil, fmt.Errorf("fresh %s request: %w", r.Req.Op, err)
		}
		wants[i] = want{out, st}
	}
	return wants, nil
}

// daemonLoad runs the timed load on a warmed daemon.
func daemonLoad(ctx context.Context, rc *runConfig, d *daemon, reg []xpowerd.Request, regWants []want, res *result) error {
	var hits, misses, evictions uint64
	untraced := 0
	for ; rc.more(&res.main, 2); untraced++ {
		round := daemonRound(rc.seed, untraced, reg)
		wants, err := roundWants(ctx, d, round, regWants)
		if err != nil {
			return err
		}
		before := d.eng.Counters()
		lat := make([]float64, len(round))
		runRound(len(round), func(i int) bool {
			t0 := time.Now()
			resp, err := d.conn.Do(ctx, &round[i].Req)
			lat[i] = 1e3 * time.Since(t0).Seconds()
			return wants[i].match(resp, err)
		}, &res.main)
		res.main.lat = append(res.main.lat, lat...)
		after := d.eng.Counters()
		hits += after.Hits - before.Hits
		misses += after.Misses - before.Misses
		evictions += after.Evictions - before.Evictions
	}
	if hits+misses > 0 {
		res.layer["memo.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	res.layer["memo.evictions"] = float64(evictions)
	res.layer["memo.disk_bytes"] = float64(dirBytes(d.memoDir))
	traced := rc.tracedRounds(&res.main)
	if traced == 0 {
		res.layer["xpowerd.shed"] = float64(d.srv.Health().Shed)
		return nil
	}

	probe, err := engine.New(engine.Options{Dir: filepath.Join(d.dir, "probe")})
	if err != nil {
		return err
	}
	rec := newRecorder(rc.epoch)
	queueMax, op := 0, 0
	for n := untraced; n < untraced+traced; n++ {
		round := daemonRound(rc.seed, n, reg)
		wants, err := roundWants(ctx, d, round, regWants)
		if err != nil {
			return err
		}
		runRound(len(round), func(i int) bool {
			r := &round[i]
			if op++; op%healthEvery == 0 {
				h := rec.begin("xpowerd.health", kindProbe, -1, op)
				_, err := d.conn.Do(ctx, &xpowerd.Request{Op: xpowerd.OpHealth})
				rec.end(h)
				if err != nil {
					return false
				}
			}
			s := rec.begin("xpowerd.do", kindOp, -1, op)
			resp, err := d.conn.Do(ctx, &r.Req)
			rec.end(s)
			w := wants[i]
			ok := w.match(resp, err)
			queueMax = max(queueMax, d.srv.Health().QueueDepth)
			// Replay the server's steps in-process, parented to the
			// wire request they stand for.
			hit := r.Reg >= 0
			eng, wl, name := probe, core.Workload{Name: "inline", Source: r.Req.Source}, "engine.miss"
			if hit {
				eng, name = d.eng, "engine.hit"
				l := rec.child("workloads.lookup", s)
				var found bool
				wl, found = workloads.ByName(r.Req.Workload)
				rec.end(l)
				ok = ok && found
			}
			e := rec.child(name, s)
			render, err := replayEngine(ctx, eng, &r.Req, wl)
			rec.end(e)
			if err != nil {
				return false
			}
			l := rec.child("xpowerd.render", s)
			out, st := render()
			rec.end(l)
			ok = ok && out == w.out && st == w.status
			if hit {
				p := rec.begin("xpowerd.report", kindProbe, -1, op)
				out, st, err := report(ctx, &r.Req)
				rec.end(p)
				ok = ok && err == nil && out == w.out && st == w.status
			} else if r.Req.Op == xpowerd.OpLint {
				ok = ok && timeLint(rec, op, wl)
			}
			return ok
		}, &res.traced)
	}
	res.spans = rec.spans
	res.layer["xpowerd.queue_depth_max"] = float64(queueMax)
	res.layer["xpowerd.shed"] = float64(d.srv.Health().Shed)
	res.layer["xpowerd.rtt_overhead_us"] = 1e6 * rttOverhead(res.spans)
	return nil
}

// timeLint times one xlint.Analyze of a fresh program, outside the
// engine that cached it.
func timeLint(rec *recorder, op int, w core.Workload) bool {
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		return false
	}
	s := rec.begin("xlint.analyze", kindProbe, -1, op)
	xlint.Analyze(prog, proc)
	rec.end(s)
	return true
}

// rttOverhead is the median, over registry requests, of the wire round
// trip minus the in-process rendering of the same request, in seconds.
func rttOverhead(spans []span) float64 {
	do, rep := map[int]float64{}, map[int]float64{}
	for i := range spans {
		switch spans[i].Name {
		case "xpowerd.do":
			do[spans[i].Op] = spans[i].dur().Seconds()
		case "xpowerd.report":
			rep[spans[i].Op] = spans[i].dur().Seconds()
		}
	}
	var diffs []float64
	for op, r := range rep {
		diffs = append(diffs, do[op]-r)
	}
	return median(diffs)
}

// dirBytes is the summed size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
