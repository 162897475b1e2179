// Fixture for the iterclose analyzer: an iterator obtained from an
// opening call must be closed on every path, unless ownership escapes.
package iterclose

type Iter interface {
	Next() ([]byte, error)
	Close() error
}

func open() (Iter, error) { return nil, nil }

func drain(it Iter) error {
	defer it.Close()
	return nil
}

// BadLeak never closes the iterator.
func BadLeak() error {
	it, err := open() // want `iterator it is not closed`
	if err != nil {
		return err
	}
	_, _ = it.Next()
	return nil
}

// GoodDefer closes via defer — the canonical shape.
func GoodDefer() error {
	it, err := open()
	if err != nil {
		return err
	}
	defer it.Close()
	_, _ = it.Next()
	return nil
}

// GoodStraightLine closes before the return.
func GoodStraightLine() error {
	it, err := open()
	if err != nil {
		return err
	}
	_, _ = it.Next()
	it.Close()
	return nil
}

// GoodIgnoredCloseError discards only the Close error, not the Close.
func GoodIgnoredCloseError() error {
	it, err := open()
	if err != nil {
		return err
	}
	_ = it.Close()
	return nil
}

// GoodCheckedClose closes in an if-init and propagates the Close error.
func GoodCheckedClose() error {
	it, err := open()
	if err != nil {
		return err
	}
	if err := it.Close(); err != nil {
		return err
	}
	return nil
}

// BadEarlyReturn leaks on the conditional path: the `stop` branch returns
// with the iterator still open.
func BadEarlyReturn(stop bool) error {
	it, err := open() // want `iterator it is not closed`
	if err != nil {
		return err
	}
	if stop {
		return nil
	}
	it.Close()
	return nil
}

// GoodBranchClose closes in the early-exit branch and on the main path.
func GoodBranchClose(stop bool) error {
	it, err := open()
	if err != nil {
		return err
	}
	if stop {
		it.Close()
		return nil
	}
	_, _ = it.Next()
	it.Close()
	return nil
}

// GoodBothBranchesClose: every terminating branch closes; control never
// falls off the end.
func GoodBothBranchesClose(stop bool) error {
	it, err := open()
	if err != nil {
		return err
	}
	if stop {
		it.Close()
		return nil
	} else {
		it.Close()
		return nil
	}
}

// GoodTransferReturn hands ownership to the caller.
func GoodTransferReturn() (Iter, error) {
	it, err := open()
	if err != nil {
		return nil, err
	}
	return it, nil
}

// GoodTransferArg hands ownership to the callee.
func GoodTransferArg() error {
	it, err := open()
	if err != nil {
		return err
	}
	return drain(it)
}

type holder struct{ it Iter }

// GoodStore stores the iterator for a later Close elsewhere.
func (h *holder) GoodStore() error {
	it, err := open()
	if err != nil {
		return err
	}
	h.it = it
	return nil
}

// GoodDeferClosure closes inside a deferred cleanup closure.
func GoodDeferClosure() error {
	it, err := open()
	if err != nil {
		return err
	}
	defer func() {
		_ = it.Close()
	}()
	_, _ = it.Next()
	return nil
}

// BadDiscard drops the iterator on the floor.
func BadDiscard() error {
	_, err := open() // want `discarded without Close`
	return err
}

// BadLoopLeak opens one iterator per iteration and closes none of them.
func BadLoopLeak(n int) {
	for i := 0; i < n; i++ {
		it, err := open() // want `iterator it is not closed`
		if err != nil {
			continue
		}
		_, _ = it.Next()
	}
}

// GoodLoopClose closes each per-iteration iterator before the next.
func GoodLoopClose(n int) {
	for i := 0; i < n; i++ {
		it, err := open()
		if err != nil {
			continue
		}
		_, _ = it.Next()
		it.Close()
	}
}

// BadCloseInNestedExit closes only in the branch that leaves through an
// if/else; the path past the branch returns with the iterator open.
func BadCloseInNestedExit(stop, fast bool) error {
	it, err := open() // want `iterator it is not closed on the path returning`
	if err != nil {
		return err
	}
	if stop {
		it.Close()
		if fast {
			return nil
		} else {
			return err
		}
	}
	_, _ = it.Next()
	return nil
}
