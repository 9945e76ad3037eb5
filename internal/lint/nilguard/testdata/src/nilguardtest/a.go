// Package nilguardtest checks the //lint:sink registration marker: a type
// outside internal/trace opts into the nil-guard contract via its doc
// comment, and unmarked types stay unconstrained.
package nilguardtest

// Buffered is a sink-like collector registered for nil-guard checking.
//
//lint:sink nil Buffered must be the disabled collector
type Buffered struct{ n int }

// Add forgets the guard.
func (b *Buffered) Add(v int) { // want `\(\*Buffered\)\.Add must begin with the .if b == nil. fast-path return`
	b.n += v
}

// Guarded complies.
func (b *Buffered) Guarded(v int) {
	if b == nil {
		return
	}
	b.n += v
}

// Plain never opted in: no constraint.
type Plain struct{ n int }

func (p *Plain) Add(v int) { p.n += v }

// Notifier exercises the //lint:guardedcall rule on an optional callback
// field: a hook left nil when its feature is off.
type Notifier struct {
	n int

	// OnEvent fires after every bump when set.
	//
	//lint:guardedcall nil OnEvent means notifications are off
	OnEvent func(v int)

	// Hook never opted in: calls through it are unconstrained.
	Hook func()
}

// BumpInline guards the call lexically: ok.
func (x *Notifier) BumpInline() {
	x.n++
	if x.OnEvent != nil {
		x.OnEvent(x.n)
	}
}

// notify uses the early-return fast path — the helper shape the rule is
// designed to bless.
func (x *Notifier) notify(v int) {
	if x.OnEvent == nil {
		return
	}
	x.OnEvent(v)
}

// BumpChain guards inside an && chain: ok.
func (x *Notifier) BumpChain(loud bool) {
	if loud && x.OnEvent != nil {
		x.OnEvent(x.n)
	}
}

// BumpUnguarded forgets the nil check.
func (x *Notifier) BumpUnguarded() {
	x.n++
	x.OnEvent(x.n) // want `call to guarded callback x\.OnEvent must sit behind an .if x\.OnEvent != nil. check`
}

// BumpCross guards the wrong receiver's field: the guard on a.OnEvent must
// not license the call through b.OnEvent.
func BumpCross(a, b *Notifier) {
	if a.OnEvent != nil {
		b.OnEvent(1) // want `call to guarded callback b\.OnEvent must sit behind`
	}
}

// BumpHook calls the unmarked callback with no guard: no constraint.
func (x *Notifier) BumpHook() { x.Hook() }
