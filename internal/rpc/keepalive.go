package rpc

import (
	"fmt"
	"time"
)

// KeepaliveConfig enables dead-peer detection on a client: when the
// connection has been idle for Interval, a ping is sent; after Count
// consecutive unanswered pings the connection is declared dead and
// closed, failing in-flight calls instead of hanging forever.
type KeepaliveConfig struct {
	Interval time.Duration
	Count    int
}

// Valid reports whether the configuration enables keepalive.
func (k KeepaliveConfig) Valid() bool { return k.Interval > 0 && k.Count > 0 }

// startKeepalive runs the probing loop; it exits as soon as the client
// closes, not at the tick after.
func (c *Client) startKeepalive(cfg KeepaliveConfig) {
	go func() {
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		var missed int
		var probed int64 // lastRx when the last ping went out
		for {
			select {
			case <-c.done:
				return
			case <-ticker.C:
			}
			if c.closed.Load() {
				return
			}
			// As libvirt's virKeepAliveCheckMessage: anything received
			// since the last ping answers it, however late this tick.
			rx := c.lastRx.Load()
			if rx != probed {
				missed = 0
			}
			if time.Since(time.Unix(0, rx)) < cfg.Interval {
				continue
			}
			missed++
			if missed > cfg.Count {
				kaFailures.Inc()
				c.failAll(fmt.Errorf("rpc: keepalive: peer silent for %d probes", cfg.Count))
				c.conn.Close()
				return
			}
			h := Header{
				Program: c.program,
				Version: ProtocolVersion,
				Type:    uint32(TypePing),
			}
			if err := c.conn.WriteMessage(h, nil); err != nil {
				kaFailures.Inc()
				c.failAll(fmt.Errorf("rpc: keepalive send: %w", err))
				c.conn.Close()
				return
			}
			probed = rx
			kaPingsSent.Inc()
		}
	}()
}

// noteTraffic records that the peer is alive.
func (c *Client) noteTraffic() {
	c.lastRx.Store(time.Now().UnixNano())
}
