package serve

import (
	"testing"
	"time"
)

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("pro:4, standard:1:50 ,free:1:5:10,")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantConfig{
		{Name: "pro", Weight: 4},
		{Name: "standard", Weight: 1, Rate: 50},
		{Name: "free", Weight: 1, Rate: 5, Burst: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tenant %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseTenantsErrors(t *testing.T) {
	for _, spec := range []string{
		":4",          // no name
		"a:x",         // bad weight
		"a:0",         // non-positive weight
		"a:1:nope",    // bad rate
		"a:1:-1",      // negative rate
		"a:1:5:0",     // non-positive burst
		"a:1:5:10:99", // too many fields
	} {
		if _, err := ParseTenants(spec); err == nil {
			t.Errorf("ParseTenants(%q) accepted", spec)
		}
	}
}

func TestTenantConfigDefaults(t *testing.T) {
	tc := TenantConfig{Name: "t"}.withDefaults()
	if tc.Weight != 1 || tc.Burst != 0 {
		t.Errorf("zero-value defaults: %+v", tc)
	}
	tc = TenantConfig{Name: "t", Rate: 2.5}.withDefaults()
	if tc.Burst != 3 {
		t.Errorf("burst should default to ceil(rate): %+v", tc)
	}
}

func TestBucketRefill(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newBucket(10, 2, t0) // 10 tokens/s, burst 2

	if !b.take(t0) || !b.take(t0) {
		t.Fatal("burst tokens not available")
	}
	if b.take(t0) {
		t.Fatal("empty bucket admitted a request")
	}
	// 100ms refills exactly one token at 10/s.
	t1 := t0.Add(100 * time.Millisecond)
	if !b.take(t1) {
		t.Fatal("refilled token not available")
	}
	if b.take(t1) {
		t.Fatal("second token admitted after a one-token refill")
	}
	// A long idle period caps at burst, not at elapsed×rate.
	t2 := t1.Add(time.Hour)
	if !b.take(t2) || !b.take(t2) {
		t.Fatal("burst not available after idle")
	}
	if b.take(t2) {
		t.Fatal("bucket exceeded burst cap")
	}
}

func TestNilBucketAdmitsEverything(t *testing.T) {
	var b *bucket
	for i := 0; i < 100; i++ {
		if !b.take(time.Unix(0, 0)) {
			t.Fatal("nil bucket rejected a request")
		}
	}
	if newBucket(0, 5, time.Unix(0, 0)) != nil {
		t.Error("rate 0 should produce a nil (unlimited) bucket")
	}
}
