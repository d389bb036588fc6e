package main

import (
	"context"
	"fmt"

	"xtenergy/internal/asm"
	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
)

// The traced legs below make the same public calls as the API functions
// they stand for (core.MeasureWorkload, core.ReferenceEnergy,
// MacroModel.EstimateWorkload), one span around each, so a layer's time
// is measured from outside the program. Their results are checked
// against the same goldens as the untraced calls.

// buildTraced is core.Workload.Build, plus the plan build that the
// first simulation would otherwise do lazily.
func buildTraced(rec *recorder, parent int, cfg procgen.Config, w core.Workload) (*procgen.Processor, *iss.Program, error) {
	s := rec.child("procgen.generate", parent)
	proc, err := procgen.Generate(cfg, w.Ext)
	rec.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	s = rec.child("asm.assemble", parent)
	prog, err := asm.New(proc.TIE).Assemble(w.Name, w.Source)
	rec.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	s = rec.child("plan.build", parent)
	prog.Plan(proc.TIE)
	rec.end(s)
	return proc, prog, nil
}

// referenceTraced is the reference leg of core.MeasureWorkload and
// core.ReferenceEnergy run as iss.RunContext with a TraceSink that
// times each StreamEstimator.Consume. Simulation and estimation run in
// turn on one goroutine instead of overlapping, so each is timed alone;
// the energy is bit-identical to the untraced leg.
func referenceTraced(ctx context.Context, rec *recorder, parent int, cfg procgen.Config, tech rtlpower.Technology, w core.Workload) (core.Measurement, error) {
	proc, prog, err := buildTraced(rec, parent, cfg, w)
	if err != nil {
		return core.Measurement{}, err
	}
	s := rec.child("rtlpower.new", parent)
	est, err := rtlpower.New(proc, tech)
	rec.end(s)
	if err != nil {
		return core.Measurement{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	st := est.Stream()
	s = rec.child("iss.new", parent)
	sim := iss.New(proc)
	rec.end(s)
	run := rec.child("iss.run", parent)
	res, err := sim.RunContext(ctx, prog, iss.Options{TraceSink: func(batch []iss.TraceEntry) error {
		c := rec.child("rtlpower.consume", run)
		err := st.Consume(batch)
		var cyc uint64
		for i := range batch {
			cyc += uint64(batch[i].Cycles)
		}
		rec.endWork(c, cyc)
		return err
	}})
	if err != nil {
		rec.end(run)
		return core.Measurement{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	rec.endWork(run, res.Stats.Retired)
	s = rec.child("rtlpower.finish", parent)
	rep, err := st.Finish()
	rec.end(s)
	if err != nil {
		return core.Measurement{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if rep.Cycles != res.Stats.Cycles {
		return core.Measurement{}, fmt.Errorf("workload %s: estimator consumed %d cycles, ISS retired %d", w.Name, rep.Cycles, res.Stats.Cycles)
	}
	s = rec.child("core.extract", parent)
	vars, err := core.Extract(proc.TIE, &res.Stats)
	rec.end(s)
	if err != nil {
		return core.Measurement{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return core.Measurement{Vars: vars, OpcodeExec: res.Stats.OpcodeExec, MeasuredPJ: rep.TotalPJ, Cycles: res.Stats.Cycles}, nil
}

// estimateTraced is MacroModel.EstimateWorkload: build, simulate,
// extract, dot product.
func estimateTraced(rec *recorder, parent int, m *core.MacroModel, cfg procgen.Config, w core.Workload) (core.Estimate, error) {
	proc, prog, err := buildTraced(rec, parent, cfg, w)
	if err != nil {
		return core.Estimate{}, err
	}
	s := rec.child("iss.new", parent)
	sim := iss.New(proc)
	rec.end(s)
	s = rec.child("iss.run", parent)
	res, err := sim.Run(prog, iss.Options{})
	if err != nil {
		rec.end(s)
		return core.Estimate{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	rec.endWork(s, res.Stats.Retired)
	s = rec.child("core.extract", parent)
	vars, err := core.Extract(proc.TIE, &res.Stats)
	rec.end(s)
	if err != nil {
		return core.Estimate{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return core.Estimate{Name: w.Name, EnergyPJ: m.EstimatePJ(vars), Vars: vars, Cycles: res.Stats.Cycles}, nil
}
