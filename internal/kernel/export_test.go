package kernel

import "verikern/internal/invariant"

// ExitChecks checks the current state as at kernel exit twice: with
// the kernel's own Checker and layout generation, and with a fresh
// Checker given generation zero, which runs every check.
func (k *Kernel) ExitChecks() (kept, fresh []invariant.Violation) {
	st := k.state(true)
	kept = k.checker.Check(&st)
	st.Layout = 0
	return kept, new(invariant.Checker).Check(&st)
}

// ExitState is the state the kernel checks at kernel exit.
func (k *Kernel) ExitState() invariant.State { return k.state(true) }
