package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TenantConfig declares one tenant's quality-of-service contract.
type TenantConfig struct {
	// Name identifies the tenant on the wire (the "tenant" request field).
	Name string
	// Weight is the tenant's fair-queueing weight: under contention a
	// tenant receives capacity proportional to its weight (0 = 1).
	Weight int
	// Rate is the token-bucket refill in requests per second; requests
	// beyond it are rejected with ErrTenantQuota (0 = unlimited).
	Rate float64
	// Burst is the bucket capacity — how far a tenant may run ahead of
	// its refill rate (0 = max(1, ceil(Rate))).
	Burst int
}

func (t TenantConfig) withDefaults() TenantConfig {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Burst <= 0 && t.Rate > 0 {
		t.Burst = int(math.Ceil(t.Rate))
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	return t
}

// ParseTenants parses the lfi-serve -tenants syntax: a comma-separated
// list of name[:weight[:rate[:burst]]] entries, e.g.
//
//	"pro:4,standard:1:50,free:1:5:10"
//
// declares a weight-4 unlimited tenant, a weight-1 tenant limited to 50
// req/s, and a weight-1 tenant at 5 req/s with bursts of 10.
func ParseTenants(spec string) ([]TenantConfig, error) {
	var out []TenantConfig
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		tc := TenantConfig{Name: parts[0]}
		if tc.Name == "" {
			return nil, fmt.Errorf("serve: tenant entry %q has no name", entry)
		}
		if len(parts) > 4 {
			return nil, fmt.Errorf("serve: tenant entry %q: want name[:weight[:rate[:burst]]]", entry)
		}
		var err error
		if len(parts) > 1 {
			if tc.Weight, err = strconv.Atoi(parts[1]); err != nil || tc.Weight <= 0 {
				return nil, fmt.Errorf("serve: tenant %s: bad weight %q", tc.Name, parts[1])
			}
		}
		if len(parts) > 2 {
			if tc.Rate, err = strconv.ParseFloat(parts[2], 64); err != nil || tc.Rate < 0 {
				return nil, fmt.Errorf("serve: tenant %s: bad rate %q", tc.Name, parts[2])
			}
		}
		if len(parts) > 3 {
			if tc.Burst, err = strconv.Atoi(parts[3]); err != nil || tc.Burst <= 0 {
				return nil, fmt.Errorf("serve: tenant %s: bad burst %q", tc.Name, parts[3])
			}
		}
		out = append(out, tc)
	}
	return out, nil
}

// bucket is a token-bucket rate limiter: tokens refill continuously at
// rate per second up to burst, and each admitted request takes one. A
// nil bucket (rate 0) admits everything.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int, now time.Time) *bucket {
	if rate <= 0 {
		return nil
	}
	return &bucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// take admits one request if a token is available at time now.
func (b *bucket) take(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
