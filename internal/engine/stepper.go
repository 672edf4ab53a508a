package engine

// Stepper is the event-driven alternative to Coroutine: a process expressed
// as an explicit state machine. The engine calls Compose to obtain the
// message for the current round, delivers the round's received multiset via
// Deliver, and stops the process once Done reports an output.
//
// Steppers are convenient for simple protocols (the baselines in
// internal/baseline) and run on the engine through FromStepper.
type Stepper interface {
	// Compose returns the message to broadcast in the current round.
	Compose() Message
	// Deliver hands over the multiset of messages received this round. The
	// slice is only valid until the next round's delivery (the engine
	// round-robins the backing storage); implementations that retain
	// messages across rounds must copy them.
	Deliver(msgs []Message)
	// Done reports whether the process has terminated, and if so its output.
	Done() (output any, done bool)
}

// FromStepper wraps a Stepper as a Coroutine. Done is checked before every
// round, so a Stepper that is done immediately never communicates.
func FromStepper(s Stepper) Coroutine {
	return CoroutineFunc(func(t *Transport) (any, error) {
		for {
			if out, done := s.Done(); done {
				return out, nil
			}
			msgs, err := t.SendAndReceive(s.Compose())
			if err != nil {
				return nil, err
			}
			s.Deliver(msgs)
		}
	})
}
