package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// characterize runs the paper's flow: core.Characterize over the 40
// characterization programs, then Table II validation (reference energy
// and macro-model estimate) of the 20 applications. rtlpower does most
// of its work. A pass lasts seconds and its programs range from ~4 to
// ~400 ms, so the flow is timed per pass; per-leg latencies are reported
// beside it.

func runCharacterize(rc *runConfig) (*result, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	res := &result{}
	var suite, apps []core.Workload
	// Set-up 0 is a discarded warm-up: a fresh process's first build
	// pays page faults and heap growth that moved the median by 40%.
	for i := 0; i <= 3*setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		suite, apps, err = characterizeSetup()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			res.setup = append(res.setup, time.Since(t0).Seconds())
		}
	}

	ctx := context.Background()
	c := &flowChecker{g: g, opsPerPass: len(suite) + 1 + 2*len(apps)}
	for p := 0; rc.more(&res.main, 3); p++ {
		timeRound(&res.main, func() { c.pass(flowPass(ctx, nil, p, suite, apps, &res.main)) })
	}
	if n := rc.tracedRounds(&res.main); n > 0 {
		rec := newRecorder(rc.epoch)
		for p := 0; p < n; p++ {
			timeRound(&res.traced, func() { c.pass(flowPass(ctx, rec, p, suite, apps, &res.traced)) })
		}
		res.spans = rec.spans
	}
	res.main.attempted += c.attempted
	res.main.failed += c.failed
	res.notes = append(res.notes, fmt.Sprintf("model_err_pct: %.4f %% (Table II mean |error|, gated < 5 and equal to golden)", c.errPct))
	return res, nil
}

// characterizeSetup builds the flow's inputs: the workload lists, and
// each program's processor and assembly once (the flow rebuilds them
// inside every leg). It takes tens of milliseconds, so the run repeats
// it 3*setupRepeats times for a steady median.
func characterizeSetup() (suite, apps []core.Workload, err error) {
	suite, apps = workloads.CharacterizationSuite(), flowApps()
	for _, ws := range [][]core.Workload{suite, apps} {
		for i := range ws {
			if _, _, err := ws[i].Build(procgen.Default()); err != nil {
				return nil, nil, err
			}
		}
	}
	return suite, apps, nil
}

// passOutcome is one pass's results, checked by flowChecker.
type passOutcome struct {
	err    error
	obs    []core.Observation
	model  *core.MacroModel
	refs   []float64 // per application
	ests   []float64
	legErr []error // per application: reference or estimate failure
	names  []string
}

// flowPass runs one pass. With rec nil it makes the untraced API calls
// and appends each leg's latency to ph.lat; with rec set it runs the
// traced legs under one operation span.
func flowPass(ctx context.Context, rec *recorder, op int, suite, apps []core.Workload, ph *phase) passOutcome {
	cfg, tech := procgen.Default(), rtlpower.DefaultTechnology()
	root := rec.begin("core.flow", kindOp, -1, op)
	defer rec.end(root)

	var legs float64
	opts := core.Options{Parallelism: 1}
	cs := rec.child("core.characterize", root)
	if rec == nil {
		opts.Measure = func(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w core.Workload) (core.Measurement, error) {
			t0 := time.Now()
			m, err := core.MeasureWorkload(ctx, cfg, tech, w)
			d := time.Since(t0).Seconds()
			legs += d
			ph.lat = append(ph.lat, 1e3*d)
			return m, err
		}
	} else {
		opts.Measure = func(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w core.Workload) (core.Measurement, error) {
			leg := rec.child("core.measure_leg", cs)
			defer rec.end(leg)
			return referenceTraced(ctx, rec, leg, cfg, tech, w)
		}
	}
	t0 := time.Now()
	cr, err := core.Characterize(ctx, cfg, tech, suite, opts)
	rec.end(cs)
	if rec == nil {
		// The fit is the characterization's own time beside its legs.
		ph.lat = append(ph.lat, 1e3*(time.Since(t0).Seconds()-legs))
	}
	out := passOutcome{err: err}
	if err != nil {
		return out
	}
	out.obs, out.model = cr.Observations, cr.Model
	for _, w := range apps {
		var ref, est float64
		var legErr error
		if rec == nil {
			t0 := time.Now()
			r, err := core.ReferenceEnergy(ctx, cfg, tech, w)
			t1 := time.Now()
			e, err2 := cr.Model.EstimateWorkload(cfg, w)
			ph.lat = append(ph.lat, 1e3*t1.Sub(t0).Seconds(), 1e3*time.Since(t1).Seconds())
			ref, est, legErr = r.EnergyPJ, e.EnergyPJ, errors.Join(err, err2)
		} else {
			s := rec.child("core.reference", root)
			m, err := referenceTraced(ctx, rec, s, cfg, tech, w)
			rec.end(s)
			s = rec.child("core.estimate", root)
			e, err2 := estimateTraced(rec, s, cr.Model, cfg, w)
			rec.end(s)
			ref, est, legErr = m.MeasuredPJ, e.EnergyPJ, errors.Join(err, err2)
		}
		out.names = append(out.names, w.Name)
		out.refs = append(out.refs, ref)
		out.ests = append(out.ests, est)
		out.legErr = append(out.legErr, legErr)
	}
	return out
}

// flowChecker compares every pass with the goldens. Each
// characterization leg, the fit, and each application's reference and
// estimate is one operation; a mismatch fails it.
type flowChecker struct {
	g                 *goldenSet
	opsPerPass        int
	attempted, failed int
	errPct            float64
}

func (c *flowChecker) pass(o passOutcome) {
	if o.err != nil {
		c.attempted += c.opsPerPass
		c.failed += c.opsPerPass
		return
	}
	for _, ob := range o.obs {
		c.check(bits(ob.MeasuredPJ) == c.g.ReferencePJ[ob.Name])
	}
	for i, name := range o.names {
		c.check(o.legErr[i] == nil && bits(o.refs[i]) == c.g.ReferencePJ[name])
		c.check(o.legErr[i] == nil && bits(o.ests[i]) == c.g.EstimatePJ[estimateKey(procgen.Default().Name, name)])
	}
	c.errPct = tableIIErr(o.ests, o.refs)
	c.check(len(o.obs)+1+2*len(o.names) == c.opsPerPass && c.g.coefOK(o.model) &&
		c.errPct < 5 && bits(c.errPct) == c.g.ModelErrPct)
}

func (c *flowChecker) check(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}
