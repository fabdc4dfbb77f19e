package common

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/telemetry"
)

// countOp bumps the per-driver operation counter
// driver_ops_total{driver,op}. Handles are cached per Base so the cost
// after the first call of each op is one map load and one atomic add.
func (b *Base) countOp(op string) {
	if v, ok := b.ops.Load(op); ok {
		v.(*telemetry.Counter).Inc()
		return
	}
	c := telemetry.Default.Counter(fmt.Sprintf(
		"driver_ops_total{driver=%q,op=%q}", b.hooks.Type(), op))
	actual, _ := b.ops.LoadOrStore(op, c)
	actual.(*telemetry.Counter).Inc()
}

// beginOp counts the operation and evaluates its faultpoint, named in
// full by the caller ("driver.op.<op>") so that no call builds the name:
// an armed error spec fails the operation before it touches any state
// (delay specs sleep inside Eval). Disarmed — always, outside chaos runs
// — this is countOp plus one atomic load.
func (b *Base) beginOp(site string) error {
	b.countOp(strings.TrimPrefix(site, "driver.op."))
	if spec, ok := faultpoint.Default.Eval(site); ok {
		if spec.Mode == faultpoint.ModeError {
			if spec.Err != nil {
				return spec.Err
			}
			return core.Errorf(core.ErrInternal, "injected fault at %s", site)
		}
	}
	return nil
}
