package pool

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/lfirt"
	"lfi/internal/obs"
	"lfi/internal/progs"
	"lfi/internal/wasmfront"
)

// An Image is a program prepared for serving: the verified ELF and a
// post-initialization snapshot of a loaded sandbox. Building an image
// runs the whole pipeline once — rewrite/assemble (for source), parse,
// verify, load, snapshot — so that serving a request costs only a
// snapshot restore. Images are immutable and safe to share across
// workers.
type Image struct {
	// Key identifies the image: a hash of the source and options (for
	// Build) or of the ELF bytes (for FromELF).
	Key string
	// ELF is the verified executable (kept for cold-load baselines).
	ELF []byte
	// Snap is the post-initialization sandbox snapshot workers restore.
	Snap *lfirt.Snapshot
}

// Cache deduplicates image builds by key: repeated submissions of the
// same program skip the compile/verify/load pipeline entirely. Builds run
// outside the cache's lock, so a build never holds up a Lookup or a hit;
// concurrent requests for one new key share one build (single flight),
// which counts one miss. A failed build is not cached.
type Cache struct {
	cfg lfirt.Config // runtime configuration images are snapshotted under

	// Registry handles (nil-safe no-ops until setObs).
	mHits, mMisses *obs.Counter

	mu     sync.Mutex
	images map[string]*flight
	hits   uint64
	misses uint64
}

// errBuildPanicked is what those waiting for a build get if it panics.
var errBuildPanicked = errors.New("pool: image build panicked")

// A flight is one image's build; done closes when it has finished. img
// is set, under the cache's lock, only if the build succeeded.
type flight struct {
	done chan struct{}
	img  *Image
	err  error
}

// setObs points the cache's hit/miss counters at a registry
// ("pool.image.hits"/"pool.image.misses").
func (c *Cache) setObs(o *obs.Obs) {
	c.mHits = o.Registry().Counter("pool.image.hits")
	c.mMisses = o.Registry().Counter("pool.image.misses")
}

// SetObs points the cache's hit/miss counters at an external
// observability bundle. Callers sharing one cache across several pools
// (Config.SharedCache) use this to report into the router-level registry
// instead of any one shard's.
func (c *Cache) SetObs(o *obs.Obs) { c.setObs(o) }

// Lookup returns the image already cached under key, if any. It never
// builds: serving front-ends use it to resolve client-supplied image
// keys to prepared images.
func (c *Cache) Lookup(key string) (*Image, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.images[key]; ok && f.img != nil {
		return f.img, true
	}
	return nil, false
}

// NewCache creates an image cache whose snapshots are taken under cfg.
// The page size and stack size must match the runtimes that will restore
// them.
func NewCache(cfg lfirt.Config) *Cache {
	return &Cache{cfg: cfg, images: make(map[string]*flight)}
}

// get returns the image cached under key, waiting for its build if one is
// in flight, or else runs build with the lock released.
func (c *Cache) get(key string, build func() (*Image, error)) (*Image, error) {
	c.mu.Lock()
	if f, ok := c.images[key]; ok {
		c.hits++
		c.mHits.Inc()
		c.mu.Unlock()
		<-f.done
		return f.img, f.err
	}
	c.misses++
	c.mMisses.Inc()
	f := &flight{done: make(chan struct{}), err: errBuildPanicked}
	c.images[key] = f
	c.mu.Unlock()
	var img *Image
	defer func() {
		c.mu.Lock()
		if f.err == nil {
			f.img = img
		} else {
			delete(c.images, key)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	img, f.err = build()
	return img, f.err
}

// Build compiles asm source through the LFI pipeline (rewrite → assemble
// → ELF → verify → load → snapshot) and caches the result keyed by
// (source, options).
func (c *Cache) Build(src string, opts core.Options) (*Image, error) {
	h := sha256.New()
	fmt.Fprintf(h, "src:%d:%v:%v:%v\n", opts.Opt, opts.NoLoads, opts.DisableSPOpts, c.cfg.VerifierCfg.NoLoads)
	h.Write([]byte(src))
	key := hex.EncodeToString(h.Sum(nil))
	return c.get(key, func() (*Image, error) {
		res, err := progs.Build(src, opts)
		if err != nil {
			return nil, err
		}
		return c.makeImage(key, res.ELF)
	})
}

// BuildWasm translates a WebAssembly module through the wasmfront
// pipeline (validate → decode → translate → rewrite → assemble → verify
// → load → snapshot) and caches the result keyed by the module's content
// hash and build options. Repeated submissions of the same module bytes
// reuse the prepared image just like asm-source builds.
func (c *Cache) BuildWasm(wasm []byte, opts core.Options) (*Image, error) {
	h := sha256.New()
	fmt.Fprintf(h, "wasm:%d:%v:%v:%v\n", opts.Opt, opts.NoLoads, opts.DisableSPOpts, c.cfg.VerifierCfg.NoLoads)
	h.Write(wasm)
	key := "wasm:" + hex.EncodeToString(h.Sum(nil))
	return c.get(key, func() (*Image, error) {
		asm, _, err := wasmfront.Translate(wasm)
		if err != nil {
			return nil, err
		}
		res, err := progs.Build(asm, opts)
		if err != nil {
			return nil, err
		}
		return c.makeImage(key, res.ELF)
	})
}

// FromELF caches an already-built executable keyed by its content hash.
// The ELF is verified (under the cache's runtime configuration) before an
// image is produced.
func (c *Cache) FromELF(elfBytes []byte) (*Image, error) {
	sum := sha256.Sum256(elfBytes)
	key := "elf:" + hex.EncodeToString(sum[:])
	return c.get(key, func() (*Image, error) { return c.makeImage(key, elfBytes) })
}

// makeImage verifies the ELF and lays it out as an immutable snapshot.
func (c *Cache) makeImage(key string, elfBytes []byte) (*Image, error) {
	exe, err := elfobj.Unmarshal(elfBytes)
	if err != nil {
		return nil, err
	}
	snap, err := lfirt.NewSnapshot(c.cfg, exe)
	if err != nil {
		return nil, err
	}
	return &Image{Key: key, ELF: elfBytes, Snap: snap}, nil
}

// Len reports how many images the cache holds or is building.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.images)
}

// HitRate returns cache hits and misses so far.
func (c *Cache) HitRate() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
