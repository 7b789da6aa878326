package machine

import (
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// small returns a 4-node machine with default latencies.
func small() *Machine {
	p := DefaultParams()
	p.Nodes = 4
	return New(p)
}

func TestParamsTable1(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.Table1()
	for _, want := range []string{"1.2 GHz", "16 KB", "1 MB", "BusTime=30", "local 170 ns, remote 290 ns"} {
		if !contains(s, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCycConversion(t *testing.T) {
	p := DefaultParams()
	if p.Cyc(170) != 204 {
		t.Fatalf("170ns = %d cycles, want 204", p.Cyc(170))
	}
	if p.Cyc(290) != 348 {
		t.Fatalf("290ns = %d cycles, want 348", p.Cyc(290))
	}
	if p.Cyc(0) != 0 {
		t.Fatal("0ns != 0 cycles")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	for _, mod := range []func(*Params){
		func(p *Params) { p.ClockGHz = 0 },
		func(p *Params) { p.Nodes = 0 },
		func(p *Params) { p.Nodes = 100 },
		func(p *Params) { p.LineBytes = 48 },
		func(p *Params) { p.RemoteMissNS = p.LocalMissNS - 1 },
	} {
		p := DefaultParams()
		mod(&p)
		if p.Validate() == nil {
			t.Fatalf("Validate accepted bad config %+v", p)
		}
	}
}

// runOne executes body on proc gid and returns the machine.
func runOne(t *testing.T, m *Machine, gid int, body func(*Proc)) {
	t.Helper()
	m.Start(gid, body)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestColdLocalMissLatency(t *testing.T) {
	m := small()
	// Choose an address homed at node 0 (line 0 % 4 == 0).
	addr := shmem.Addr(0)
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		t0 := p.Ctx.Now()
		p.Load(addr)
		lat = p.Ctx.Now() - t0
	})
	// L1 hit + L2 hit + 170ns local miss = 1 + 10 + 204 = 215.
	want := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.LocalMissNS)
	if lat != want {
		t.Fatalf("cold local miss = %d cycles, want %d", lat, want)
	}
}

func TestColdRemoteMissLatency(t *testing.T) {
	m := small()
	// Line 1 is homed at node 1; access from node 0.
	addr := shmem.Addr(uint64(m.P.LineBytes))
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		t0 := p.Ctx.Now()
		p.Load(addr)
		lat = p.Ctx.Now() - t0
	})
	want := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS)
	if lat != want {
		t.Fatalf("cold remote miss = %d cycles, want %d", lat, want)
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	m := small()
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		p.Load(0)
		t0 := p.Ctx.Now()
		p.Load(0)
		lat = p.Ctx.Now() - t0
	})
	if lat != m.P.L1HitCycles {
		t.Fatalf("L1 hit = %d cycles, want %d", lat, m.P.L1HitCycles)
	}
}

func TestL2HitFromSiblingProc(t *testing.T) {
	// CPU 1 loads a line CPU 0 already brought into the shared L2: it pays
	// L1+L2 hit latency only, no directory transaction.
	m := small()
	done := false
	m.Start(0, func(p *Proc) {
		p.Load(0)
		done = true
	})
	var lat sim.Time
	m.Start(1, func(p *Proc) {
		p.Ctx.SpinUntil(func() bool { return done }, 10, nil)
		t0 := p.Ctx.Now()
		p.Load(0)
		lat = p.Ctx.Now() - t0
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if lat != m.P.L1HitCycles+m.P.L2HitCycles {
		t.Fatalf("sibling L2 hit = %d, want %d", lat, m.P.L1HitCycles+m.P.L2HitCycles)
	}
}

func TestStoreEstablishesOwnership(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	runOne(t, m, 0, func(p *Proc) {
		p.Store(addr)
	})
	line := m.LineOf(addr)
	e := m.Dir.Peek(line)
	if e == nil || e.State.String() != "M" || e.Owner != 0 {
		t.Fatalf("directory after store: %+v", e)
	}
	l2 := m.Nodes[0].L2.Peek(line)
	if l2 == nil || l2.State.String() != "M" {
		t.Fatalf("L2 after store: %+v", l2)
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Load(addr)
		phase = 1
		p.Ctx.SpinUntil(func() bool { return phase == 2 }, 10, nil)
		// Reader's copy must be gone after node 1's store.
		if m.Nodes[0].L2.Peek(m.LineOf(addr)) != nil {
			t.Error("sharer L2 copy not invalidated by remote store")
		}
		if p.L1.Peek(m.LineOf(addr)) != nil {
			t.Error("sharer L1 copy not invalidated by remote store")
		}
	})
	m.Start(2, func(p *Proc) { // proc 2 = node 1 cpu 0
		p.Ctx.SpinUntil(func() bool { return phase == 1 }, 10, nil)
		p.Store(addr)
		phase = 2
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	e := m.Dir.Peek(m.LineOf(addr))
	if e.Owner != 1 {
		t.Fatalf("owner = %d, want 1", e.Owner)
	}
}

func TestDirtyRemoteReadDowngradesOwner(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Store(addr)
		phase = 1
	})
	var lat sim.Time
	m.Start(2, func(p *Proc) {
		p.Ctx.SpinUntil(func() bool { return phase == 1 }, 10, nil)
		t0 := p.Ctx.Now()
		p.Load(addr)
		lat = p.Ctx.Now() - t0
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	line := m.LineOf(addr)
	e := m.Dir.Peek(line)
	if e.State.String() != "S" || !e.HasSharer(0) || !e.HasSharer(1) {
		t.Fatalf("directory after 3-hop read: %+v", e)
	}
	if l := m.Nodes[0].L2.Peek(line); l == nil || l.State.String() != "S" {
		t.Fatal("owner not downgraded to shared")
	}
	// 3-hop: remote miss + forwarding extra.
	min := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS+m.P.DirtyForwardNS)
	if lat < min {
		t.Fatalf("3-hop read latency %d < minimum %d", lat, min)
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	runOne(t, m, 0, func(p *Proc) {
		p.Load(addr)
		p.Store(addr) // upgrade in place
	})
	e := m.Dir.Peek(m.LineOf(addr))
	if e.State.String() != "M" || e.Owner != 0 {
		t.Fatalf("after upgrade: %+v", e)
	}
}

func TestIntraCMPWriteInvalidatesSiblingL1(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Load(addr)
		phase = 1
		p.Ctx.SpinUntil(func() bool { return phase == 2 }, 10, nil)
		if p.L1.Peek(m.LineOf(addr)) != nil {
			t.Error("sibling L1 copy survived local write")
		}
	})
	m.Start(1, func(p *Proc) {
		p.Ctx.SpinUntil(func() bool { return phase == 1 }, 10, nil)
		p.Store(addr)
		phase = 2
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownAccountsAllCycles(t *testing.T) {
	m := small()
	var total sim.Time
	var p0 *Proc
	runOne(t, m, 0, func(p *Proc) {
		p0 = p
		start := p.Ctx.Now()
		p.Compute(100)
		for i := 0; i < 50; i++ {
			p.Load(shmem.Addr(i * 64))
			p.Store(shmem.Addr(i * 64))
		}
		p.WithCategory(stats.CatBarrier, func() { p.Wait(77) })
		total = p.Ctx.Now() - start
	})
	if got := p0.Bd.Total(); got != uint64(total) {
		t.Fatalf("breakdown total %d != elapsed %d", got, total)
	}
	if p0.Bd[stats.CatBarrier] != 77 {
		t.Fatalf("barrier cycles = %d, want 77", p0.Bd[stats.CatBarrier])
	}
	if p0.Bd[stats.CatBusy] < 100 {
		t.Fatalf("busy cycles = %d, want >= 100", p0.Bd[stats.CatBusy])
	}
}

func TestMemoryControllerContention(t *testing.T) {
	// Two procs on different nodes hammer lines homed at node 0
	// simultaneously; queueing at node 0's memory controller must make the
	// combined latency exceed two isolated accesses.
	m := small()
	var lat [2]sim.Time
	for i, gid := range []int{2, 4} { // nodes 1 and 2
		i, gid := i, gid
		m.Start(gid, func(p *Proc) {
			t0 := p.Ctx.Now()
			for k := 0; k < 8; k++ {
				p.Load(shmem.Addr(uint64(k*4*m.P.LineBytes) + uint64(i*1024*m.P.LineBytes)))
			}
			lat[i] = p.Ctx.Now() - t0
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	solo := 8 * (m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS))
	if lat[0] <= solo && lat[1] <= solo {
		t.Fatalf("no contention visible: %v vs solo %d", lat, solo)
	}
}

func TestPrefetchNonBlocking(t *testing.T) {
	m := small()
	var issue sim.Time
	runOne(t, m, 0, func(p *Proc) {
		t0 := p.Ctx.Now()
		p.Prefetch(shmem.Addr(64), true)
		issue = p.Ctx.Now() - t0
	})
	if issue > 5 {
		t.Fatalf("prefetch issue cost %d cycles, want tiny", issue)
	}
	// State should be established.
	e := m.Dir.Peek(m.LineOf(64))
	if e == nil || e.Owner != 0 {
		t.Fatalf("prefetch-exclusive did not take ownership: %+v", e)
	}
}

func TestMergedAccessWaitsForInflightFill(t *testing.T) {
	m := small()
	addr := shmem.Addr(uint64(m.P.LineBytes)) // remote line (home node 1)
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		p.Prefetch(addr, false)
		t0 := p.Ctx.Now()
		p.Load(addr) // must merge: waits for the in-flight fill
		lat = p.Ctx.Now() - t0
	})
	if lat < m.P.Cyc(m.P.RemoteMissNS)/2 {
		t.Fatalf("merged access latency %d too small; merge not modelled", lat)
	}
	full := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS)
	if lat > full+10 {
		t.Fatalf("merged access latency %d exceeds full miss %d", lat, full)
	}
}

func TestClassificationTimely(t *testing.T) {
	m := small()
	// Pair procs 0 (R) and 1 (A) on node 0.
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	addr := shmem.Addr(uint64(m.P.LineBytes))
	phase := 0
	m.Start(1, func(p *Proc) {
		p.Load(addr) // A fetches
		phase = 1
	})
	m.Start(0, func(p *Proc) {
		p.Ctx.SpinUntil(func() bool { return phase == 1 }, 10, nil)
		p.Compute(1000) // well past fill completion
		p.Load(addr)    // R touches: A-Timely
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutTimely]; got != 1 {
		t.Fatalf("A-read-timely = %d, want 1 (class=%+v)", got, m.Class)
	}
}

func TestClassificationLate(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	addr := shmem.Addr(uint64(m.P.LineBytes))
	m.Start(1, func(p *Proc) {
		p.Prefetch(addr, false) // in-flight fill
	})
	m.Start(0, func(p *Proc) {
		p.Compute(5)
		p.Load(addr) // arrives while fill in flight: A-Late
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutLate]; got != 1 {
		t.Fatalf("A-read-late = %d, want 1 (class=%+v)", got, m.Class)
	}
}

func TestClassificationOnlyAtEndOfRun(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	m.Start(1, func(p *Proc) {
		p.Load(shmem.Addr(64)) // never touched by R
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutOnly]; got != 1 {
		t.Fatalf("A-read-only = %d, want 1", got)
	}
}

func TestClassificationOnlyOnInvalidation(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	addr := shmem.Addr(0)
	phase := 0
	m.Start(1, func(p *Proc) {
		p.Load(addr)
		phase = 1
	})
	m.Start(2, func(p *Proc) { // node 1 writes, invalidating A's fill
		p.Ctx.SpinUntil(func() bool { return phase == 1 }, 10, nil)
		p.Store(addr)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutOnly]; got != 1 {
		t.Fatalf("A-read-only after invalidation = %d, want 1", got)
	}
}

func TestSelfInvalidationDropsOwnerCopy(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	a.SelfInval = true
	addr := shmem.Addr(0)
	phase := 0
	m.Start(2, func(p *Proc) { // producer on node 1
		p.Store(addr)
		phase = 1
	})
	m.Start(1, func(p *Proc) { // A-stream consumer read
		p.Ctx.SpinUntil(func() bool { return phase == 1 }, 10, nil)
		p.Load(addr)
		phase = 2
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[1].L2.Peek(m.LineOf(addr)) != nil {
		t.Fatal("producer kept its copy despite self-invalidation hint")
	}
	e := m.Dir.Peek(m.LineOf(addr))
	if e.State.String() != "S" || !e.HasSharer(0) || e.HasSharer(1) {
		t.Fatalf("directory after self-invalidation: %+v", e)
	}
}

func TestPairRegsFreeOfCoherenceTraffic(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(p *Proc) {
		loads := p.Loads
		p.Node.Regs.Allowance = 3
		if p.Node.Regs.Allowance != 3 {
			t.Error("register write lost")
		}
		if p.Loads != loads {
			t.Error("register access generated memory traffic")
		}
	})
}

func TestCoherenceCheckAfterRandomTraffic(t *testing.T) {
	m := small()
	for gid := 0; gid < 8; gid++ {
		gid := gid
		m.Start(gid, func(p *Proc) {
			x := uint64(gid*2654435761 + 12345)
			for i := 0; i < 300; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				addr := shmem.Addr((x >> 16) % (1 << 14))
				if x%3 == 0 {
					p.Store(addr)
				} else {
					p.Load(addr)
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatalf("coherence check failed after random traffic: %v", err)
	}
}

func TestWallTime(t *testing.T) {
	m := small()
	m.Start(0, func(p *Proc) { p.Compute(100) })
	m.Start(2, func(p *Proc) { p.Compute(500) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.WallTime() != 500 {
		t.Fatalf("wall time = %d, want 500", m.WallTime())
	}
}

// A panic in one processor's program reaches the caller of Run, and the
// processors still parked are unwound rather than left behind.
func TestRunPanicReleasesParkedProcs(t *testing.T) {
	m := small()
	unwound := false
	m.Start(0, func(p *Proc) {
		defer func() { unwound = true }()
		p.Compute(1000)
	})
	m.Start(1, func(p *Proc) {
		p.Compute(10)
		panic("kernel bug")
	})
	func() {
		defer func() {
			if r := recover(); r != "kernel bug" {
				t.Fatalf("Run panicked with %v, want \"kernel bug\"", r)
			}
		}()
		_ = m.Run()
		t.Fatal("Run returned instead of panicking")
	}()
	if !unwound || !m.Eng.Finished() {
		t.Fatalf("parked processor not unwound (unwound=%v finished=%v)", unwound, m.Eng.Finished())
	}
}

func TestReleasedMachineRerunsIdentically(t *testing.T) {
	// The second machine takes over the first one's released cache
	// storage, which is full of lines; it must still start cold. Every
	// processor runs, so every cache the second machine reuses held lines.
	run := func() *Machine {
		m := small()
		for gid := range m.Procs {
			gid := gid
			m.Start(gid, func(p *Proc) {
				for k := 0; k < 64; k++ {
					addr := shmem.Addr(uint64(k * m.P.LineBytes))
					if (k+gid)%3 == 0 {
						p.Store(addr)
					} else {
						p.Load(addr)
					}
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := run()
	wall, bd := first.WallTime(), first.TotalBreakdown()
	first.Release()
	second := run()
	if second.WallTime() != wall || second.TotalBreakdown() != bd {
		t.Fatalf("rerun on released storage: wall %d breakdown %v, want %d %v",
			second.WallTime(), second.TotalBreakdown(), wall, bd)
	}
}
