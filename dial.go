package oasis

import (
	"crypto/x509"
	"flag"
	"time"

	"oasis/internal/flagbind"
	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
)

// MemConn is the full memory-server client surface: page reads (plain
// and staged), image/diff uploads (one-shot and streamed), lifecycle and
// counters. Dial returns a MemConn whatever transport shape the options
// select — a bare connection, a resilient one, a pooled one, or a
// sharded replicated fabric — so one call site scales from a laptop
// test to a rack purely through options.
type MemConn = memserver.Conn

// Transport is the unified page-transport configuration every Oasis
// program shares: connection-pool width, prefetch/upload parallelism,
// and the shard-fabric backend list. The daemons bind it to their flag
// sets with BindTransportFlags, the agent consumes it as its transport
// config, and WithTransport applies its connection-shaping fields to a
// Dial.
type Transport = flagbind.Transport

// BindTransportFlags registers the shared page-transport flags (-pool,
// -prefetch-streams, -upload-streams, -backends, -replicas) on fs,
// storing parsed values into t. Current field values of t become the
// flag defaults. oasis-agentd and memtapctl parse their transport knobs
// through this one binding.
func BindTransportFlags(fs *flag.FlagSet, t *Transport) { flagbind.BindTransport(fs, t) }

// ShardClient is the sharded, replicated memory-server fabric client:
// a consistent-hash ring over N backends keyed by (VMID, page range),
// R-way replicated writes, and per-range read failover. Dial returns
// one (as a MemConn) when WithBackends selects a fabric; DialShard
// returns the concrete type for callers that need ring introspection.
type ShardClient = shard.Client

// ShardConfig tunes a shard fabric: replication factor, placement
// range size, ring geometry, per-backend pooling. The zero value gives
// 2-way replication over 4-MiB ranges with default pools.
type ShardConfig = shard.Config

// DialShard connects a sharded fabric client to the backends. Most
// callers want Dial with WithBackends instead; this entry point exposes
// the concrete client for ring/placement introspection.
func DialShard(backends []string, secret []byte, cfg ShardConfig) (*ShardClient, error) {
	return shard.Dial(backends, secret, cfg)
}

// DialOption configures Dial; see WithTimeout, WithResilience,
// WithPool, WithTLS, WithBackends, WithReplicas, WithTransport.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout   time.Duration
	res       ResilienceConfig
	resilient bool
	pool      int
	poolSet   bool
	roots     *x509.CertPool
	backends  []string
	replicas  int
}

// WithTimeout bounds the initial dial (and, on the resilient shapes,
// every reconnect attempt). Zero keeps the 5-second default.
func WithTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithResilience selects the self-healing client — reconnect, bounded
// retries, circuit breaker — tuned by cfg; the zero ResilienceConfig
// selects defaults. Pooled and sharded shapes inherit cfg for every
// connection they manage.
func WithResilience(cfg ResilienceConfig) DialOption {
	return func(c *dialConfig) { c.res = cfg; c.resilient = true }
}

// WithPool fans requests across size pooled resilient connections
// (size <= 0 selects the default of 4). Implies WithResilience.
func WithPool(size int) DialOption {
	return func(c *dialConfig) { c.pool = size; c.poolSet = true }
}

// WithTLS dials over TLS, verifying the server against roots (§4.3
// "Security"); the shared-secret challenge still runs inside the TLS
// session. Applies to every connection of whatever shape the other
// options select.
func WithTLS(roots *x509.CertPool) DialOption {
	return func(c *dialConfig) { c.roots = roots }
}

// WithBackends selects the sharded fabric: pages place onto these
// backends by consistent hashing and writes replicate (see
// WithReplicas). The addr argument of Dial is ignored — the fabric is
// exactly this list; pass "" for clarity. Implies WithResilience.
func WithBackends(addrs ...string) DialOption {
	return func(c *dialConfig) { c.backends = append([]string(nil), addrs...) }
}

// WithReplicas sets the fabric's replication factor (writes must reach
// every replica; reads fail over between them). Only meaningful with
// WithBackends; <= 0 keeps the default of 2, values above the backend
// count are clamped.
func WithReplicas(n int) DialOption {
	return func(c *dialConfig) { c.replicas = n }
}

// WithTransport applies a Transport's connection-shaping fields —
// PoolSize, Backends, Replicas — to the dial, so a daemon can hand its
// flag-bound transport straight to Dial. The fields follow the
// Transport contract exactly: PoolSize <= 1 keeps a single resilient
// connection (the same shape WithResilience selects) rather than a
// one-lane pool, Backends selects the sharded fabric with PoolSize as
// the per-backend pool width, and Replicas <= 0 takes the fabric
// default. PrefetchStreams and UploadStreams shape the memtap/agent
// pipelines, not the connection, and are ignored here.
func WithTransport(t Transport) DialOption {
	return func(c *dialConfig) {
		switch {
		case t.Sharded():
			c.backends = append([]string(nil), t.Backends...)
			if t.PoolSize > 0 {
				c.pool = t.PoolSize
				c.poolSet = true
			}
		case t.PoolSize > 1:
			c.pool = t.PoolSize
			c.poolSet = true
		case t.PoolSize == 1:
			c.resilient = true
		}
		if t.Replicas > 0 {
			c.replicas = t.Replicas
		}
	}
}

// Dial connects to the memory-server tier and returns the client shape
// the options select, behind the one MemConn surface:
//
//   - no options: one authenticated connection (a *MemClient);
//   - WithResilience: a self-healing connection (*ResilientMemClient);
//   - WithPool: a pool of resilient connections (*MemClientPool);
//   - WithBackends: a sharded replicated fabric (*ShardClient) — addr
//     is ignored, the backend list is the fabric.
//
// WithTLS and WithTimeout shape the underlying connections of any of
// the four.
func Dial(addr string, secret []byte, opts ...DialOption) (MemConn, error) {
	var c dialConfig
	for _, o := range opts {
		o(&c)
	}
	res := c.res
	if c.timeout > 0 {
		res.DialTimeout = c.timeout
	}
	if c.roots != nil {
		// Route every (re)connect through the TLS dialer; the resilient
		// layer otherwise falls back to the plaintext memserver.Dial.
		roots, timeout := c.roots, res.DialTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		secretCopy := append([]byte(nil), secret...)
		if len(c.backends) == 0 {
			a := addr
			res.Dialer = func() (*MemClient, error) {
				return memserver.DialTLS(a, secretCopy, roots, timeout)
			}
		}
	}
	switch {
	case len(c.backends) > 0:
		cfg := ShardConfig{
			Replicas: c.replicas,
			Pool:     MemPoolConfig{Size: c.pool, Resilience: res},
		}
		if c.roots != nil {
			roots, timeout := c.roots, res.DialTimeout
			if timeout <= 0 {
				timeout = 5 * time.Second
			}
			secretCopy := append([]byte(nil), secret...)
			cfg.Dialer = func(a string) (*MemClient, error) {
				return memserver.DialTLS(a, secretCopy, roots, timeout)
			}
		}
		return shard.Dial(c.backends, secret, cfg)
	case c.poolSet:
		return memserver.DialPool(addr, secret, MemPoolConfig{Size: c.pool, Resilience: res})
	case c.resilient:
		return memserver.DialResilient(addr, secret, res)
	case c.roots != nil:
		timeout := c.timeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		return memserver.DialTLS(addr, secret, c.roots, timeout)
	default:
		timeout := c.timeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		return memserver.Dial(addr, secret, timeout)
	}
}
