package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
)

// figConfig is one size of the figures matrix.
type figConfig struct {
	scale npb.Scale
	nodes int
}

func (c figConfig) String() string { return fmt.Sprintf("%s:%d", c.scale, c.nodes) }

// referencePath is the committed rendering of Table 1/2 and Fig 2–5 for c.
func (c figConfig) referencePath(root string) string {
	return filepath.Join(root, "perfbench", "testdata", fmt.Sprintf("figures_%s%d.txt", c.scale, c.nodes))
}

var (
	// figFull is the figures workload: the paper's 16-CMP machine at small
	// scale, whose working sets sit closer to paper scale relative to the
	// modelled caches than test scale does.
	figFull = figConfig{scale: npb.ScaleSmall, nodes: 16}
	// figTour is the reduced matrix traced runs of the other workloads use
	// to cover the simulator layers.
	figTour = figConfig{scale: npb.ScaleTest, nodes: 4}
)

func (c figConfig) options() experiments.Options {
	o := experiments.DefaultOptions()
	o.Nodes, o.Scale, o.Verify, o.Jobs = c.nodes, c.scale, true, runtime.NumCPU()
	return o
}

// cell is one (kernel, configuration) coordinate of the Fig 2–5 matrix.
type cell struct {
	kernel  npb.Kernel
	config  string
	cfg     omp.Config
	dynamic bool
}

// matrix lists the static suite (Fig 2/3) and then the dynamic suite
// (Fig 4/5) in the order experiments.RunStatic/RunDynamic use.
func (c figConfig) matrix() []cell {
	p := machine.DefaultParams()
	p.Nodes = c.nodes
	var cells []cell
	for _, k := range npb.Kernels() {
		for _, rc := range []struct {
			name string
			cfg  omp.Config
		}{
			{"single", omp.Config{Machine: p, Mode: core.ModeSingle}},
			{"double", omp.Config{Machine: p, Mode: core.ModeDouble}},
			{"slip-G0", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0}},
			{"slip-L1", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.L1}},
		} {
			cells = append(cells, cell{kernel: k, config: rc.name, cfg: rc.cfg})
		}
	}
	for _, k := range npb.Kernels() {
		if !k.Dynamic {
			continue
		}
		chunk := k.ChunkFor(c.scale, p.Nodes)
		cells = append(cells,
			cell{kernel: k, config: "single-dyn", dynamic: true,
				cfg: omp.Config{Machine: p, Mode: core.ModeSingle, Sched: omp.Dynamic, Chunk: chunk}},
			cell{kernel: k, config: "slip-G0-dyn", dynamic: true,
				cfg: omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, Sched: omp.Dynamic, Chunk: chunk}})
	}
	return cells
}

// cellTrace holds the spans and counts of one traced cell.
type cellTrace struct {
	newD, buildD, runD, verifyD time.Duration
	accesses, l2Misses, remote  uint64
	fills, invals               uint64
	cycles, recoveries          uint64
}

// cellOutcome is one cell's result and host time.
type cellOutcome struct {
	res        experiments.Result
	err        error
	start, end time.Time
	tr         cellTrace
}

// runCellTraced is experiments.RunOne split at the calls into each layer:
// omp.New, Kernel.Build, Runtime.Run and Instance.Verify.
func runCellTraced(c cell, scale npb.Scale) (experiments.Result, cellTrace, error) {
	var tr cellTrace
	t0 := time.Now()
	rt, err := omp.New(c.cfg)
	t1 := time.Now()
	tr.newD = t1.Sub(t0)
	if err != nil {
		return experiments.Result{}, tr, err
	}
	inst := c.kernel.Build(rt, scale)
	t2 := time.Now()
	tr.buildD = t2.Sub(t1)
	err = rt.Run(inst.Program)
	t3 := time.Now()
	tr.runD = t3.Sub(t2)
	if err != nil {
		return experiments.Result{}, tr, err
	}
	err = inst.Verify()
	tr.verifyD = time.Since(t3)
	if err != nil {
		return experiments.Result{}, tr, fmt.Errorf("verification: %w", err)
	}
	for _, p := range rt.M.Procs {
		tr.accesses += p.Loads + p.Stores
		tr.l2Misses += p.L2Misses
		tr.remote += p.Remote
	}
	tr.fills = rt.M.Proto.Fills()
	tr.invals = rt.M.Proto.Invals
	tr.cycles = rt.M.WallTime()
	tr.recoveries = rt.SS.Recoveries()
	return experiments.Result{
		Kernel:     c.kernel.Name,
		Config:     c.config,
		Size:       inst.Size,
		Wall:       rt.M.WallTime(),
		Breakdown:  rt.M.TotalBreakdown(),
		Class:      rt.M.Class,
		Recoveries: rt.SS.Recoveries(),
		Faults:     rt.FaultsInjected(),
		TasksRun:   rt.TasksExecuted(),
		Steals:     rt.TaskSteals(),
	}, tr, nil
}

// suiteRun is one pass over the whole matrix plus its rendering.
type suiteRun struct {
	attempted int           // cells run
	failures  []string      // failed cells as "kernel/config: error"
	wall      time.Duration // first cell dispatched → rendering done
	renderD   time.Duration
	rendered  []byte
	cells     []cell        // traced passes only: the matrix, cell by cell
	outs      []cellOutcome // traced passes only
}

// runSuite runs c's matrix the way `slipsim -experiment all` does:
// experiments.RunStatic and then experiments.RunDynamic, each on Jobs =
// nproc workers (the CLI's default -jobs), then the rendering.
func runSuite(c figConfig) (*suiteRun, error) {
	opts := c.options()
	start := time.Now()
	static, err := experiments.RunStatic(opts, nil)
	if err != nil {
		return nil, err
	}
	dynamic, err := experiments.RunDynamic(opts, nil)
	if err != nil {
		return nil, err
	}
	sr := &suiteRun{}
	for _, s := range []*experiments.Suite{static, dynamic} {
		for _, rs := range s.Static {
			sr.attempted += len(rs)
		}
		for _, rs := range s.Dynamic {
			sr.attempted += len(rs)
		}
		sr.attempted += len(s.Errors)
		for _, e := range s.Errors {
			sr.failures = append(sr.failures, e.Error())
		}
	}
	return sr, sr.render(opts, static, dynamic, start)
}

// traceSuite is runSuite cell by cell through runCellTraced, so that each
// layer's calls get spans of their own. Like the CLI it runs the static
// matrix and then the dynamic one, each on nproc workers, and renders
// through the same experiments.Suite methods.
func traceSuite(c figConfig) (*suiteRun, error) {
	opts := c.options()
	cells := c.matrix()
	sr := &suiteRun{attempted: len(cells), cells: cells, outs: make([]cellOutcome, len(cells))}
	nStatic := 0
	for nStatic < len(cells) && !cells[nStatic].dynamic {
		nStatic++
	}
	start := time.Now()
	for _, phase := range [][2]int{{0, nStatic}, {nStatic, len(cells)}} {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < opts.Jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					o := &sr.outs[i]
					o.start = time.Now()
					o.res, o.tr, o.err = runCellTraced(cells[i], c.scale)
					o.end = time.Now()
				}
			}()
		}
		for i := phase[0]; i < phase[1]; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	static := &experiments.Suite{Opts: opts, Static: map[string]map[string]experiments.Result{}}
	dynamic := &experiments.Suite{Opts: opts, Dynamic: map[string]map[string]experiments.Result{}}
	for i, cl := range cells {
		m := static.Static
		if cl.dynamic {
			m = dynamic.Dynamic
		}
		if m[cl.kernel.Name] == nil {
			m[cl.kernel.Name] = map[string]experiments.Result{}
		}
		if err := sr.outs[i].err; err != nil {
			sr.failures = append(sr.failures, fmt.Sprintf("%s/%s: %v", cl.kernel.Name, cl.config, err))
			continue
		}
		m[cl.kernel.Name][cl.config] = sr.outs[i].res
	}
	return sr, sr.render(opts, static, dynamic, start)
}

// render writes Table 1/2 and Fig 2–5 exactly as `slipsim -experiment all`
// prints them, and closes the pass's wall time, which began at start.
func (sr *suiteRun) render(opts experiments.Options, static, dynamic *experiments.Suite, start time.Time) error {
	rs := time.Now()
	var buf bytes.Buffer
	experiments.Table1(opts, &buf)
	fmt.Fprintln(&buf)
	if err := experiments.Table2(opts, &buf); err != nil {
		return err
	}
	fmt.Fprintln(&buf)
	static.Fig2(&buf)
	static.Fig3(&buf)
	dynamic.Fig4(&buf)
	dynamic.Fig5(&buf)
	sr.rendered = buf.Bytes()
	sr.renderD = time.Since(rs)
	sr.wall = time.Since(start)
	return nil
}

// check counts the suite's operations and failures into r: each cell is
// one operation, the rendering against ref is one more.
func (sr *suiteRun) check(r *result, ref []byte, label string) {
	r.attempted += sr.attempted
	for _, f := range sr.failures {
		r.fail(1, "%s cell %s", label, f)
	}
	r.attempted++
	r.fail(compareReference(sr.rendered, ref), "%s rendering differs from its reference", label)
}

// compareReference returns 1 (one failed operation) unless got matches
// the reference byte for byte.
func compareReference(got, ref []byte) int {
	if len(ref) == 0 || !bytes.Equal(got, ref) {
		return 1
	}
	return 0
}

func runFigures(e env, traced bool) (*result, error) {
	r := newResult()
	r.stamp["scale"], r.stamp["nodes"] = figFull.scale.String(), figFull.nodes
	ref, err := readReference(e.root, figFull)
	if err != nil {
		return nil, err
	}
	if traced {
		untraced, err := runSuite(figFull)
		if err != nil {
			return nil, err
		}
		untraced.check(r, ref, "untraced figures")
		tr, err := traceFigures(r, figFull, ref, "figures")
		if err != nil {
			return nil, err
		}
		r.metrics["trace.overhead_s"] = tr.wall.Seconds() - untraced.wall.Seconds()
		r.named["suite_s"] = untraced.wall.Seconds()
		r.named["suite_traced_s"] = tr.wall.Seconds()
		return r, tour(e, r, "figures")
	}

	setups, err := figureSetups(setupRepeats)
	if err != nil {
		return nil, err
	}
	// The operation is one pass over the matrix: what a user of
	// `slipsim -experiment all` waits for. Single cells are no steadier a
	// unit: two run at a time, and a cell's time depends on its neighbour.
	var walls []float64
	var total time.Duration
	cpu0, err := cpuOf(os.Getpid())
	if err != nil {
		return nil, err
	}
	for {
		sr, err := runSuite(figFull)
		if err != nil {
			return nil, err
		}
		sr.check(r, ref, "figures")
		walls = append(walls, sr.wall.Seconds())
		total += sr.wall
		// Start another pass only if it would still end inside the window.
		if total.Seconds()+sr.wall.Seconds() > e.secs {
			break
		}
	}
	cpu1, err := cpuOf(os.Getpid())
	if err != nil {
		return nil, err
	}
	hwm, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	lat := make([]float64, len(walls))
	for i, w := range walls {
		lat[i] = 1000 * w
	}
	tail, tailMs := tailOf(lat)
	r.stamp["suites"] = len(walls)
	r.stamp["op_tail_percentile"] = tail
	r.report(setups, hwm, 1000*(cpu1-cpu0)/float64(len(walls)), quantile(lat, 50), float64(len(walls))/total.Seconds())
	r.named["op_tail_ms"] = tailMs
	r.named["suite_s"] = median(walls)
	return r, nil
}

// traceFigures runs c's matrix traced, checks it against ref, and fills
// the simulator layers' per-layer metrics into r.
func traceFigures(r *result, c figConfig, ref []byte, label string) (*suiteRun, error) {
	sr, err := traceSuite(c)
	if err != nil {
		return nil, err
	}
	sr.check(r, ref, "traced "+label)
	var sum cellTrace
	var cellTime time.Duration
	runByMode := map[core.Mode]time.Duration{}
	accByMode := map[core.Mode]uint64{}
	for i, o := range sr.outs {
		t := o.tr
		sum.newD += t.newD
		sum.buildD += t.buildD
		sum.runD += t.runD
		sum.verifyD += t.verifyD
		sum.accesses += t.accesses
		sum.l2Misses += t.l2Misses
		sum.remote += t.remote
		sum.fills += t.fills
		sum.invals += t.invals
		sum.cycles += t.cycles
		sum.recoveries += t.recoveries
		cellTime += o.end.Sub(o.start)
		mode := sr.cells[i].cfg.Mode
		runByMode[mode] += t.runD
		accByMode[mode] += t.accesses
	}
	m := r.metrics
	m["omp.new_s"] = sum.newD.Seconds()
	m["npb.build_s"] = sum.buildD.Seconds()
	m["omp.run_s"] = sum.runD.Seconds()
	m["npb.verify_s"] = sum.verifyD.Seconds()
	m["experiments.render_s"] = sr.renderD.Seconds()
	m["experiments.pool_parallelism"] = ratio(cellTime.Seconds(), sr.wall.Seconds())
	m["machine.accesses"] = float64(sum.accesses)
	m["machine.l2_misses"] = float64(sum.l2Misses)
	m["machine.remote_misses"] = float64(sum.remote)
	m["machine.fills"] = float64(sum.fills)
	m["machine.invals"] = float64(sum.invals)
	m["sim.cycles"] = float64(sum.cycles)
	m["core.recoveries"] = float64(sum.recoveries)
	m["omp.run_ns_per_kcycle"] = ratio(float64(sum.runD.Nanoseconds())*1000, float64(sum.cycles))
	for mode, name := range map[core.Mode]string{core.ModeSingle: "single", core.ModeDouble: "double", core.ModeSlipstream: "slipstream"} {
		m["omp.run_ns_per_access."+name] = ratio(float64(runByMode[mode].Nanoseconds()), float64(accByMode[mode]))
	}
	r.stamp["traced_figures"] = c.String()
	return sr, nil
}

// figureSetups measures set-up n times: from just before exec of a fresh
// process to the moment that process's first matrix cell starts running
// (runtime and kernel instance built). The child reports the CPU time it
// spent getting there.
func figureSetups(n int) ([]setup, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setup
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-setup-probe")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		wall := time.Since(t0).Seconds()
		werr := cmd.Wait()
		cpuStr, ok := strings.CutPrefix(strings.TrimSpace(line), "started ")
		cpu, perr := strconv.ParseFloat(cpuStr, 64)
		if rerr != nil || werr != nil || !ok || perr != nil {
			return nil, fmt.Errorf("setup probe: %q %v %v", line, rerr, werr)
		}
		out = append(out, setup{wall: wall, cpu: cpu})
	}
	return out, nil
}

// runSetupProbe is the child side of figureSetups: it prepares the first
// cell of the figures matrix the way the suite does and reports, with the
// CPU time it has used, when that cell's simulation would start.
func runSetupProbe() int {
	c := figFull
	first := c.matrix()[0]
	rt, err := omp.New(first.cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	inst := first.kernel.Build(rt, c.scale)
	cpu, err := cpuOf(os.Getpid())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("started", cpu)
	runtime.KeepAlive(inst)
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func readReference(root string, c figConfig) ([]byte, error) {
	return os.ReadFile(c.referencePath(root))
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
