package mpi

// Send transmits a typed slice to rank dst with a user tag (0..2^23-1).
// Send borrows data only until it returns, so callers may reuse the
// slice immediately.
func Send[T any](c *Comm, dst int, tag int, data []T) error {
	b := rawBuf[T]{v: data}
	return c.sendRaw(dst, c.p2pTag(tag), b.payload(0, len(data)), b.bytesFor(len(data)))
}

// Recv blocks for a typed slice from rank src with the matching user tag.
// It returns ProcFailedError if src dies, or the payload.
func Recv[T any](c *Comm, src int, tag int) ([]T, error) {
	scope := &opScope{
		comm:          c,
		members:       map[ProcID]bool{c.procs[src]: true},
		abortOnRevoke: true,
	}
	c.p.begin(scope)
	defer c.p.end()
	m, err := c.recvRaw(src, c.p2pTag(tag))
	if err != nil {
		return nil, err
	}
	if m.Data == nil {
		return nil, nil
	}
	return payloadAs[T](m.Data), nil
}

// SendVal transmits a single value of any type (copied by value).
func SendVal[T any](c *Comm, dst int, tag int, v T) error {
	b := rawBuf[T]{}
	return c.sendRaw(dst, c.p2pTag(tag), v, b.bytesFor(1))
}

// RecvVal receives a single value sent with SendVal.
func RecvVal[T any](c *Comm, src int, tag int) (T, error) {
	scope := &opScope{
		comm:          c,
		members:       map[ProcID]bool{c.procs[src]: true},
		abortOnRevoke: true,
	}
	c.p.begin(scope)
	defer c.p.end()
	var zero T
	m, err := c.recvRaw(src, c.p2pTag(tag))
	if err != nil {
		return zero, err
	}
	return m.Data.(T), nil
}

// Sendrecv performs a combined exchange with potentially different
// partners, posting the send before the receive (safe with the
// transports' unbounded mailboxes).
func Sendrecv[T any](c *Comm, dst, sendTag int, data []T, src, recvTag int) ([]T, error) {
	if err := Send(c, dst, sendTag, data); err != nil {
		return nil, err
	}
	return Recv[T](c, src, recvTag)
}
