package safecube

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// ErrBlocked reports that an in-flight unicast can no longer choose a
// usable preferred neighbor — typically because nodes died after
// admission. Recompute the levels implicitly by calling
// RouteSession.Reroute, or abandon the message.
var ErrBlocked = core.ErrBlocked

// RouteSession is an in-flight unicast that advances one hop per Step,
// letting callers interleave failures with message progress — the
// paper's demand-driven scenario (Section 2.2): a unicast disturbed by
// a new fault "might either be aborted or be re-routed from the current
// node after all the safety levels are stabilized."
type RouteSession struct {
	sess *core.Session
	cube *Cube
}

// StartUnicast admits a unicast from s to d and returns the session.
// On Failure the session is nil (the message never leaves the source).
func (c *Cube) StartUnicast(s, d NodeID) (*RouteSession, Condition, Outcome) {
	return c.start(s, d, c.routeObs)
}

// start admits a unicast on a router reporting to ro.
func (c *Cube) start(s, d NodeID, ro *obs.RouteObserver) (*RouteSession, Condition, Outcome) {
	sess, cond, out := c.router(ro).Start(s, d)
	if sess == nil {
		return nil, cond, out
	}
	return &RouteSession{sess: sess, cube: c}, cond, out
}

// Step advances the message one hop, returning true on arrival.
// ErrBlocked means new faults cut the chosen directions; call Reroute.
func (rs *RouteSession) Step() (bool, error) { return rs.sess.Step() }

// Run drives the session until arrival or blockage.
func (rs *RouteSession) Run() (bool, error) { return rs.sess.Run() }

// Reroute recomputes the safety levels from the cube's current fault
// state (the state-change-driven GS) and re-admits the unicast from the
// node currently holding the message. A Failure result means the
// message is stuck there — the paper's abort branch.
func (rs *RouteSession) Reroute() (Condition, Outcome) {
	lv := rs.cube.ComputeLevels()
	return rs.sess.Reroute(lv.as)
}

// Done reports whether the message has arrived.
func (rs *RouteSession) Done() bool { return rs.sess.Done() }

// At returns the node currently holding the message.
func (rs *RouteSession) At() NodeID { return rs.sess.At() }

// Path returns the walk traveled so far.
func (rs *RouteSession) Path() []NodeID { return rs.sess.Path() }

// Hops returns the hops traveled so far.
func (rs *RouteSession) Hops() int { return rs.sess.Hops() }

// Reroutes returns how many re-admissions the session needed.
func (rs *RouteSession) Reroutes() int { return rs.sess.Reroutes() }
