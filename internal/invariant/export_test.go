package invariant

// OracleCheck is the all-pairs oracle suite, for the external tests.
var OracleCheck = oracleCheck

// Screens indexes s as Check does and reports whether each clean-path
// screen passes it: the run queues, the endpoint and notification
// queues, and the address spaces.
func (c *Checker) Screens(s *State) (runQueues, waitQueues, vspace bool) {
	c.index(s)
	return runQueuesClean(s, c.tcbs), waitQueuesClean(c.eps, c.ntfns), vspaceClean(s)
}
