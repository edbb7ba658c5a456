package threadmodel

import "testing"

func TestGoroutinesCostMoreThanRecords(t *testing.T) {
	gBytes, release := GoroutinePark(2000, 8)
	defer release()
	rBytes, records := RecordPark(2000)
	if len(records) != 2000 {
		t.Fatal("records missing")
	}
	if gBytes < 2048 {
		t.Errorf("goroutine bytes = %.0f, expected at least a minimum stack", gBytes)
	}
	if rBytes > 300 {
		t.Errorf("record bytes = %.0f, expected a small record", rBytes)
	}
	if gBytes <= rBytes {
		t.Errorf("space claim fails natively: goroutine %.0f <= record %.0f", gBytes, rBytes)
	}
	// The paper's 85% saving corresponds to a ratio of ~6.8; native Go
	// shows at least a few-fold gap.
	if ratio := gBytes / rBytes; ratio < 4 {
		t.Errorf("space ratio = %.1f, want >= 4", ratio)
	}
}

func TestSwitchLatencies(t *testing.T) {
	g := GoroutineSwitchNs(20000)
	r := ContinuationSwitchNs(20000)
	if g <= 0 || r <= 0 {
		t.Fatalf("latencies: g=%v r=%v", g, r)
	}
	if r >= g {
		t.Errorf("continuation switch (%.1fns) not cheaper than goroutine switch (%.1fns)", r, g)
	}
}

func TestMeasure(t *testing.T) {
	c := Measure(500, 4, 5000)
	if c.Population != 500 || c.SpaceRatio <= 1 || c.SwitchRatio <= 1 {
		t.Fatalf("comparison = %+v", c)
	}
}

func TestStackGrowthMatters(t *testing.T) {
	shallow, rel1 := GoroutinePark(500, 0)
	rel1()
	deep, rel2 := GoroutinePark(500, 64)
	rel2()
	if deep <= shallow {
		t.Errorf("stack growth not visible: shallow %.0f bytes, deep %.0f bytes per goroutine", shallow, deep)
	}
}
