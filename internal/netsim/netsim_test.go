package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockOrdering(t *testing.T) {
	n := New(1)
	var order []int
	n.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	n.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	n.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	n.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if n.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", n.Now())
	}
}

func TestClockTieBreakIsFIFO(t *testing.T) {
	n := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		n.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	n.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestScheduleNegativeDelayFiresNow(t *testing.T) {
	n := New(1)
	fired := false
	n.Schedule(-time.Second, func() { fired = true })
	n.Run()
	if !fired || n.Now() != 0 {
		t.Fatalf("negative delay should clamp to now; fired=%v now=%v", fired, n.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	n := New(1)
	hits := 0
	n.Schedule(10*time.Millisecond, func() { hits++ })
	n.Schedule(50*time.Millisecond, func() { hits++ })
	n.RunUntil(20 * time.Millisecond)
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if n.Now() != 20*time.Millisecond {
		t.Fatalf("now = %v, want 20ms", n.Now())
	}
	n.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestNestedScheduling(t *testing.T) {
	n := New(1)
	var at []Time
	n.Schedule(time.Millisecond, func() {
		n.Schedule(time.Millisecond, func() { at = append(at, n.Now()) })
	})
	n.Run()
	if len(at) != 1 || at[0] != 2*time.Millisecond {
		t.Fatalf("nested event at %v, want [2ms]", at)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	n := New(1)
	n.AddNode("x", 1)
	n.AddNode("x", 1)
}

func TestChannelDeliveryTime(t *testing.T) {
	n := New(1)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, LinkConfig{Bandwidth: 1 * MB, Delay: 10 * time.Millisecond})

	var arrived Time = -1
	l.AB.SetHandler(func(p Packet) { arrived = n.Now() })
	l.AB.Send(Packet{Size: 1 * MB})
	n.Run()

	want := time.Second + 10*time.Millisecond // 1MB at 1MB/s + 10ms propagation
	if arrived != want {
		t.Fatalf("arrival at %v, want %v", arrived, want)
	}
}

func TestChannelFIFOSerialization(t *testing.T) {
	n := New(1)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, LinkConfig{Bandwidth: 1 * MB, Delay: 0})

	var times []Time
	l.AB.SetHandler(func(p Packet) { times = append(times, n.Now()) })
	for i := 0; i < 3; i++ {
		l.AB.Send(Packet{Size: MB / 2})
	}
	n.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d, want 3", len(times))
	}
	// Back-to-back serialization: arrivals at 0.5s, 1.0s, 1.5s.
	for i, want := range []Time{500 * time.Millisecond, time.Second, 1500 * time.Millisecond} {
		if times[i] != want {
			t.Fatalf("arrival[%d] = %v, want %v", i, times[i], want)
		}
	}
}

func TestChannelLossRate(t *testing.T) {
	n := New(42)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, LinkConfig{Bandwidth: 100 * MB, Loss: 0.2})

	got := 0
	l.AB.SetHandler(func(p Packet) { got++ })
	const sent = 5000
	for i := 0; i < sent; i++ {
		l.AB.Send(Packet{Size: 100})
	}
	n.Run()
	rate := 1 - float64(got)/sent
	if math.Abs(rate-0.2) > 0.03 {
		t.Fatalf("observed loss %.3f, want ~0.2", rate)
	}
	st := l.AB.Stats()
	if st.Sent != sent || st.Delivered != uint64(got) || st.Lost != sent-uint64(got) {
		t.Fatalf("stats inconsistent: %+v (got=%d)", st, got)
	}
}

func TestChannelQueueLimitTailDrop(t *testing.T) {
	n := New(1)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, LinkConfig{Bandwidth: 1000, QueueLimit: 2})

	ok := 0
	for i := 0; i < 5; i++ {
		if l.AB.Send(Packet{Size: 1000}) { // each takes 1s to serialize
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d packets, want 2 (queue limit)", ok)
	}
	if l.AB.Stats().TailDrops != 3 {
		t.Fatalf("tail drops = %d, want 3", l.AB.Stats().TailDrops)
	}
	n.Run()
}

func TestChannelJitterBounded(t *testing.T) {
	n := New(7)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	jit := 5 * time.Millisecond
	l := n.Connect(a, b, LinkConfig{Bandwidth: 1e9, Delay: 10 * time.Millisecond, Jitter: jit})

	var arrivals []Time
	l.AB.SetHandler(func(p Packet) { arrivals = append(arrivals, n.Now()) })
	start := n.Now()
	for i := 0; i < 200; i++ {
		l.AB.Send(Packet{Size: 1})
	}
	n.Run()
	sawJitter := false
	for _, at := range arrivals {
		d := at - start - 10*time.Millisecond
		if d < 0 || d >= jit+time.Millisecond {
			t.Fatalf("arrival offset %v outside [0, jitter)", d)
		}
		if d > 0 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("jitter never applied")
	}
}

func TestCrossTrafficBounds(t *testing.T) {
	n := New(3)
	ct := DefaultCrossTraffic(0.6)
	for i := 0; i < 2000; i++ {
		f := ct.Factor(n, Time(i)*ct.Interval)
		if f < ct.Min-1e-12 || f > ct.Max+1e-12 {
			t.Fatalf("factor %v outside [%v,%v]", f, ct.Min, ct.Max)
		}
	}
}

func TestCrossTrafficMeanReversion(t *testing.T) {
	n := New(9)
	ct := DefaultCrossTraffic(0.7)
	sum, cnt := 0.0, 0
	for i := 0; i < 20000; i++ {
		sum += ct.Factor(n, Time(i)*ct.Interval)
		cnt++
	}
	mean := sum / float64(cnt)
	if math.Abs(mean-0.7) > 0.06 {
		t.Fatalf("long-run mean %.3f, want ~0.7", mean)
	}
}

func TestBulkTransferIdealTime(t *testing.T) {
	n := New(1)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, LinkConfig{Bandwidth: 10 * MB, Delay: 5 * time.Millisecond})

	elapsed := MeasureBulk(l.AB, 20*MB)
	want := 2*time.Second + 5*time.Millisecond
	tol := 50 * time.Millisecond
	if elapsed < want-tol || elapsed > want+tol {
		t.Fatalf("bulk elapsed %v, want ~%v", elapsed, want)
	}
}

func TestBulkTransferWithLossIsSlowerButCompletes(t *testing.T) {
	n := New(5)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, LinkConfig{Bandwidth: 10 * MB, Delay: 5 * time.Millisecond, Loss: 0.05})

	elapsed := MeasureBulk(l.AB, 20*MB)
	ideal := 2 * time.Second
	if elapsed <= ideal {
		t.Fatalf("lossy transfer %v should exceed ideal %v", elapsed, ideal)
	}
	if elapsed > 3*ideal {
		t.Fatalf("lossy transfer %v unreasonably slow", elapsed)
	}
}

func TestBulkTransferZeroBytes(t *testing.T) {
	n := New(1)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	l := n.Connect(a, b, LinkConfig{Bandwidth: MB})
	done := false
	BulkTransfer(l.AB, 0, func(e Time) {
		done = true
		if e != 0 {
			t.Fatalf("zero-byte transfer took %v", e)
		}
	})
	n.Run()
	if !done {
		t.Fatal("zero-byte transfer never completed")
	}
}

func TestBulkTransferDeterministic(t *testing.T) {
	run := func() Time {
		n := New(77)
		a := n.AddNode("a", 1)
		b := n.AddNode("b", 1)
		cfg := LinkConfig{Bandwidth: 8 * MB, Delay: 10 * time.Millisecond, Loss: 0.03,
			Jitter: time.Millisecond, Cross: DefaultCrossTraffic(0.8)}
		l := n.Connect(a, b, cfg)
		return MeasureBulk(l.AB, 5*MB)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestBulkTransferTimeScalesWithSize(t *testing.T) {
	// Property: on a clean link, transfer time is monotone in size and
	// roughly proportional.
	f := func(kb uint16) bool {
		size := int(kb%512+1) * 1024
		n := New(1)
		a := n.AddNode("a", 1)
		b := n.AddNode("b", 1)
		l := n.Connect(a, b, LinkConfig{Bandwidth: 1 * MB})
		el := MeasureBulk(l.AB, size)
		ideal := time.Duration(float64(size) / float64(MB) * float64(time.Second))
		return el >= ideal && el < ideal+time.Second
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTestbedTopology(t *testing.T) {
	n := Testbed(1, DefaultTestbed())
	nodes := map[string]*Node{}
	for _, nd := range n.Nodes() {
		nodes[nd.Name] = nd
	}
	for _, name := range []string{ORNL, LSU, UT, NCState, OSU, GaTech} {
		if nodes[name] == nil {
			t.Fatalf("missing node %s", name)
		}
	}
	// Every loop in Fig. 9 must be routable.
	loops := [][]string{
		{ORNL, LSU, GaTech, UT, ORNL},
		{ORNL, LSU, GaTech, NCState, ORNL},
		{ORNL, LSU, OSU, NCState, ORNL},
		{ORNL, LSU, OSU, UT, ORNL},
		{ORNL, GaTech, ORNL},
		{ORNL, OSU, ORNL},
	}
	for _, loop := range loops {
		for i := 0; i+1 < len(loop); i++ {
			if n.Channel(loop[i], loop[i+1]) == nil {
				t.Fatalf("no channel %s -> %s", loop[i], loop[i+1])
			}
		}
	}
	if !nodes[ORNL].HasGPU || nodes[GaTech].HasGPU || nodes[OSU].HasGPU {
		t.Fatal("GPU flags do not match the paper's host descriptions")
	}
	if nodes[UT].Workers < 2 || nodes[NCState].Workers < 2 {
		t.Fatal("cluster nodes must be parallel")
	}
}

func TestTestbedFastPathIsFaster(t *testing.T) {
	n := Testbed(1, TestbedConfig{BandwidthScale: 1, ClusterWorkers: 4})
	fast := MeasureBulk(n.Channel(GaTech, UT), 8*MB)
	slow := MeasureBulk(n.Channel(GaTech, ORNL), 8*MB)
	if fast >= slow {
		t.Fatalf("GaTech->UT (%v) should beat GaTech->ORNL (%v)", fast, slow)
	}
}
