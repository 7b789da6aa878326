package server

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/npb"
	"repro/internal/omp"
	"repro/internal/synth"
)

// execute runs a compiled spec to completion and renders the same text
// artifacts the CLI tools print. Rendering is fully deterministic (matrix
// order collection, sorted kernels, fixed config order), which is what
// lets the result cache serve these bytes as if the run had happened.
//
// Partial failures fail the job: a suite with cell errors returns an
// error and nothing is cached, so the cache only ever holds complete,
// verified artifacts.
func (s *Server) execute(ctx context.Context, c *compiledSpec, progress io.Writer) ([]byte, error) {
	// A context already dead (job timeout, shutdown) fails every kind up
	// front — including single runs, which cannot observe cancellation
	// mid-simulation.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	opts := c.opts
	opts.Jobs = s.cfg.SuiteJobs

	switch c.spec.Kind {
	case KindRun:
		return s.executeRun(c, &buf)

	case KindStatic:
		suite, err := experiments.RunStaticCtx(ctx, opts, progress)
		if err != nil {
			return nil, err
		}
		if err := suite.Err(); err != nil {
			return nil, err
		}
		suite.Fig2(&buf)
		suite.Fig3(&buf)

	case KindDynamic:
		suite, err := experiments.RunDynamicCtx(ctx, opts, progress)
		if err != nil {
			return nil, err
		}
		if err := suite.Err(); err != nil {
			return nil, err
		}
		suite.Fig4(&buf)
		suite.Fig5(&buf)

	case KindScaling:
		rows, err := experiments.RunScalingCtx(ctx, c.spec.Kernel, c.spec.NodeCounts,
			c.scale, s.cfg.SuiteJobs, *c.spec.Verify, progress)
		if err != nil {
			return nil, err
		}
		experiments.PrintScaling(c.spec.Kernel, rows, &buf)

	case KindTokens:
		rows, err := experiments.RunTokenSweepCtx(ctx, c.spec.Kernel, c.spec.Nodes,
			c.scale, c.spec.TokenCounts, s.cfg.SuiteJobs, *c.spec.Verify, progress)
		if err != nil {
			return nil, err
		}
		experiments.PrintTokenSweep(c.spec.Kernel, rows, &buf)

	case KindChaos:
		suite, err := experiments.RunChaosCtx(ctx, opts, *c.faults, c.chaosRates, progress)
		if err != nil {
			return nil, err
		}
		if err := suite.Err(); err != nil {
			return nil, err
		}
		s.metrics.faults.Add(suite.TotalFaults())
		s.metrics.recoveries.Add(suite.TotalRecoveries())
		suite.Curves(&buf)

	case KindTasks:
		suite, err := experiments.RunTasksCtx(ctx, opts, c.spec.NodeCounts, c.spec.Cutoffs, progress)
		if err != nil {
			return nil, err
		}
		if err := suite.Err(); err != nil {
			return nil, err
		}
		suite.Table(&buf)

	case KindCharacterize:
		rows, err := experiments.CharacterizeCtx(ctx, c.spec.Nodes, synth.DefaultParams(),
			s.cfg.SuiteJobs, progress)
		if err != nil {
			return nil, err
		}
		experiments.PrintCharacterization(rows, &buf)

	default:
		return nil, fmt.Errorf("unexecutable kind %q", c.spec.Kind)
	}
	return buf.Bytes(), nil
}

// executeRun performs a single kernel run. A single cell cannot be
// usefully interrupted mid-simulation (cancellation is observed between
// cells everywhere else), so it takes no context.
func (s *Server) executeRun(c *compiledSpec, buf *bytes.Buffer) ([]byte, error) {
	k, err := npb.ByName(c.spec.Kernel)
	if err != nil {
		return nil, err
	}
	p := *c.opts.Params
	cfg := omp.Config{
		Machine:        p,
		Mode:           c.mode,
		Slipstream:     c.sync,
		SelfInvalidate: c.spec.SelfInvalidate,
		Sched:          c.sched,
		Chunk:          c.spec.Chunk,
		Faults:         c.faults,
	}
	if cfg.Chunk == 0 && cfg.Sched != omp.Static {
		cfg.Chunk = k.ChunkFor(c.scale, p.Nodes)
	}
	name := fmt.Sprintf("%s/%s/%s", c.spec.Mode, c.spec.Sched, cfg.Slipstream)
	r, err := experiments.RunOne(k, name, cfg, c.scale, *c.spec.Verify)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(buf, "%s %s\n", r.Kernel, r.Size)
	fmt.Fprintf(buf, "config:     %s\n", r.Config)
	fmt.Fprintf(buf, "cycles:     %d (%.3f ms simulated at %.1f GHz)\n",
		r.Wall, float64(r.Wall)/(p.ClockGHz*1e6), p.ClockGHz)
	fmt.Fprintf(buf, "breakdown:  %s\n", r.Breakdown.String())
	if c.faults != nil {
		s.metrics.faults.Add(r.Faults)
		s.metrics.recoveries.Add(r.Recoveries)
		fmt.Fprintf(buf, "faults:     %d injected (plan %s)\n", r.Faults, c.faults.String())
	}
	if c.spec.Mode == "slipstream" {
		fmt.Fprintf(buf, "recoveries: %d\nshared-request classification:\n%s\n", r.Recoveries, r.Class.String())
	}
	if *c.spec.Verify {
		fmt.Fprintln(buf, "verification: PASSED (matches serial reference)")
	}
	return buf.Bytes(), nil
}
