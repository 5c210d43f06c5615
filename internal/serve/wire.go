package serve

// This file is the wire protocol (DESIGN §9). A call and its reply each
// travel as one frame, [u32 length][u64 seq][u8 kind][body], little-endian.
// A call's kind is its index in methods; a reply's is replyOK or replyErr,
// whose body is the error's message: the message is the code, and fromWire
// turns it back into an error errors.Is recognizes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"slices"
	"strings"
	"sync"
)

const (
	frameHeader = 9 // seq and kind, between a frame's length and body
	// maxFrame caps a frame's length (DeployGraph's graph JSON is the only
	// large body); a longer frame closes its connection unread.
	maxFrame = 64 << 20
	replyOK  = 0
	replyErr = 1
)

var errFrame = errors.New("serve: malformed frame")

// frameReader reads one connection's frames into a buffer it reuses: a body
// is valid until the next call to next.
type frameReader struct {
	r      *bufio.Reader
	length [4]byte
	buf    []byte
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(conn, 32<<10)}
}

func (f *frameReader) next() (seq uint64, kind byte, body []byte, err error) {
	if _, err := io.ReadFull(f.r, f.length[:]); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(f.length[:]))
	if n < frameHeader || n > maxFrame {
		return 0, 0, nil, fmt.Errorf("%w: length %d", errFrame, n)
	}
	f.buf = f.buf[:0]
	for have := 0; have < n; have = len(f.buf) {
		// Grow as the bytes arrive, not as the length claims: a frame that
		// lies about its length costs no more memory than was sent.
		step := min(n-have, 64<<10)
		f.buf = slices.Grow(f.buf, step)[:have+step]
		if _, err := io.ReadFull(f.r, f.buf[have:]); err != nil {
			return 0, 0, nil, err
		}
	}
	return binary.LittleEndian.Uint64(f.buf), f.buf[8], f.buf[frameHeader:], nil
}

// wirer is a message: its one wire method moves every field, in order,
// through a coder that either encodes or decodes, so the two cannot drift.
type wirer interface{ wire(c *coder) }

// msg is *T for a message type T, so generic code can make one and move it.
type msg[T any] interface {
	*T
	wirer
}

// coder encodes by appending to buf and decodes by consuming it; a decode's
// first failure sticks. Its owner keeps it: a coder handed to a wire method
// escapes, so one per message would cost an allocation each.
type coder struct {
	buf []byte
	dec bool
	err error
	// names, when set, resolves decoded strings; decode keeps it.
	names *nameMemo
}

// frame appends a frame carrying msg.
func (c *coder) frame(seq uint64, kind byte, msg wirer) {
	start := len(c.buf)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, 0)
	c.buf = append(binary.LittleEndian.AppendUint64(c.buf, seq), kind)
	msg.wire(c)
	binary.LittleEndian.PutUint32(c.buf[start:], uint32(len(c.buf)-start-4))
}

// decode fills msg from a whole body; bytes left over are an error.
func (c *coder) decode(body []byte, msg wirer) error {
	*c = coder{buf: body, dec: true, names: c.names}
	if msg.wire(c); c.err == nil && len(c.buf) > 0 {
		c.err = errFrame
	}
	return c.err
}

// fail ends a decode; with buf gone, every later field fails too.
func (c *coder) fail() { c.err, c.buf = errFrame, nil }

// take consumes n bytes of a decode, or fails it and returns nil.
func (c *coder) take(n uint64) []byte {
	if c.err != nil || n > uint64(len(c.buf)) {
		c.fail()
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

func (c *coder) uvarint(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
	} else if x, n := binary.Uvarint(c.buf); n > 0 {
		*v, c.buf = x, c.buf[n:]
	} else {
		c.fail()
	}
}

// i64 moves a signed integer zig-zag encoded, as binary.AppendVarint does.
func (c *coder) i64(v *int64) {
	x := uint64(*v<<1) ^ uint64(*v>>63)
	c.uvarint(&x)
	*v = int64(x>>1) ^ -int64(x&1)
}

func (c *coder) int(v *int) {
	x := int64(*v)
	c.i64(&x)
	*v = int(x)
}

func (c *coder) bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if c.uvarint(&x); x > 1 {
		c.fail()
	}
	*v = x == 1
}

func (c *coder) f64(v *float64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	} else if b := c.take(8); b != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// str moves a string. A decode keeps *v when the bytes equal it, so a
// destination pre-set to the value it expects costs no allocation; else it
// takes the names memo's copy, or a fresh one: frame buffers are reused.
func (c *coder) str(v *string) {
	n := uint64(len(*v))
	if c.uvarint(&n); !c.dec {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(n); c.err == nil && string(b) != *v {
		*v = c.names.intern(b)
	}
}

// bytes moves a byte slice, decoding a copy every time: the caller owns
// the slice it gets.
func (c *coder) bytes(v *[]byte) {
	n := uint64(len(*v))
	if c.uvarint(&n); !c.dec {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(n); c.err == nil {
		*v = append([]byte{}, b...)
	}
}

// nameMemo is the first memoSize distinct strings a connection's reader
// decoded: a connection names a handful of models over and over, and a
// name found here costs a compare, not an allocation. Past memoSize names
// every other one is copied each time, so a connection cannot grow it.
type nameMemo struct {
	n     int
	names [memoSize]string
}

const memoSize = 8

// intern returns a string equal to b: the memo's, or a new one it keeps
// while it has room. A nil memo only copies.
func (m *nameMemo) intern(b []byte) string {
	if m == nil {
		return string(b)
	}
	for _, s := range m.names[:m.n] {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if m.n < memoSize {
		m.names[m.n] = s
		m.n++
	}
	return s
}

// list moves a length, then each element through elem. A decoded length is
// bounded by the bytes left at size per element: no allocation past the frame.
func list[T any](c *coder, v *[]T, size int, elem func(*T, *coder)) {
	n := uint64(len(*v))
	if c.uvarint(&n); c.dec && n > uint64(len(c.buf)/size) {
		c.fail()
		return
	}
	if c.dec && n > 0 {
		*v = make([]T, n)
	}
	for i := range int(n) {
		elem(&(*v)[i], c)
	}
}

// empty is the args or reply of a call that carries none; message is an
// error reply's body.
type (
	empty   struct{}
	message string
)

func (*empty) wire(*coder)               {}
func (m *message) wire(c *coder)         { c.str((*string)(m)) }
func (a *InferArgs) wire(c *coder)       { c.str(&a.Model); c.f64(&a.DeadlineMs) }
func (r *SubmitReply) wire(c *coder)     { c.int(&r.ReqID) }
func (a *WaitArgs) wire(c *coder)        { c.int(&a.ReqID) }
func (a *CancelArgs) wire(c *coder)      { c.int(&a.ReqID) }
func (r *CancelReply) wire(c *coder)     { c.str(&r.State) }
func (a *UndeployArgs) wire(c *coder)    { c.str(&a.Name) }
func (r *ListModelsReply) wire(c *coder) { list(c, &r.Models, 1, (*ModelDesc).wire) }
func (r *ModelStatsReply) wire(c *coder) { c.f64(&r.Alpha); list(c, &r.Models, 1, (*ModelQoS).wire) }
func (r *DeployReply) wire(c *coder)     { c.str(&r.Name); c.int(&r.Blocks); c.bool(&r.Replaced) }
func (a *DeployGraphArgs) wire(c *coder) { c.bytes(&a.GraphJSON); c.int(&a.Blocks); c.i64(&a.GASeed) }

func (r *InferReply) wire(c *coder) {
	c.int(&r.ReqID)
	c.str(&r.Model)
	c.int(&r.Blocks)
	c.f64(&r.E2EMs)
	c.f64(&r.ExtMs)
	c.f64(&r.WaitMs)
	c.f64(&r.ResponseRatio)
	c.int(&r.Preemptions)
	c.int(&r.Device)
}

func (r *StatsReply) wire(c *coder) {
	c.int(&r.Served)
	c.int(&r.Queued)
	c.int(&r.Models)
	c.f64(&r.UptimeS)
	c.int(&r.Devices)
	c.str(&r.Placement)
	c.int(&r.Partitions)
}

func (q *ModelQoS) wire(c *coder) {
	c.str(&q.Model)
	c.int(&q.Served)
	c.f64(&q.MeanRR)
	c.f64(&q.MaxRR)
	c.f64(&q.MeanWaitMs)
	c.f64(&q.ViolationRate)
	c.int(&q.Preemptions)
}

func (a *DeployArgs) wire(c *coder) {
	c.str(&a.Name)
	c.str(&a.Class)
	c.f64(&a.ExtMs)
	list(c, &a.BlockTimesMs, 8, func(t *float64, c *coder) { c.f64(t) })
}

func (d *ModelDesc) wire(c *coder) {
	c.str(&d.Name)
	c.str(&d.Class)
	c.f64(&d.ExtMs)
	c.int(&d.Blocks)
}

func (r *DeployGraphReply) wire(c *coder) {
	c.str(&r.Name)
	c.int(&r.Blocks)
	c.f64(&r.StdDevMs)
	c.f64(&r.OverheadRatio)
	c.bool(&r.Replaced)
}

// method is a SPLIT.* method and its handler on the connection's reader.
type method struct {
	name  string
	serve func(r *Responder, seq uint64, body []byte)
}

// methods is the dispatch table, indexed by method byte. Infer, Submit and
// Wait hand a waiter to the server; the rest are plain server calls,
// answered inline but for DeployGraph, whose GA gets a goroutine.
var methods = [...]method{
	{"SPLIT.Infer", (*Responder).infer},
	{"SPLIT.Submit", (*Responder).submit},
	{"SPLIT.Wait", (*Responder).wait},
	{"SPLIT.Cancel", handle(func(s *Server, a *CancelArgs) (CancelReply, error) {
		return CancelReply{State: string(s.Cancel(a.ReqID))}, nil
	}, true)},
	{"SPLIT.Stats", handle((*Server).stats, true)},
	{"SPLIT.ModelStats", handle((*Server).modelStats, true)},
	{"SPLIT.Deploy", handle((*Server).deploy, true)},
	{"SPLIT.Undeploy", handle((*Server).undeploy, true)},
	{"SPLIT.ListModels", handle((*Server).listModels, true)},
	{"SPLIT.DeployGraph", handle((*Server).deployGraph, false)},
}

// handle makes a plain server call a dispatch-table entry: decode its args
// on the reader, call it inline or on its own goroutine, send its reply.
func handle[A, B any, PA msg[A], PB msg[B]](f func(*Server, PA) (B, error), inline bool) func(*Responder, uint64, []byte) {
	return func(r *Responder, seq uint64, body []byte) {
		args := PA(new(A))
		if err := r.in.decode(body, args); err != nil {
			r.send(seq, nil, err)
			return
		}
		call := func() {
			reply, err := f(r.srv, args)
			r.send(seq, PB(&reply), err)
		}
		if inline {
			call()
		} else {
			go call()
		}
	}
}

// outbox is one end's frames on their way out: callers frame into out
// under mu, and its writer (writeLoop) writes all that built up while its
// previous write ran in one write, from two buffers used in turn. The
// server's Responder and the Client each have one per connection.
type outbox struct {
	conn net.Conn
	// mu guards the frames the writer has not taken (out) and closed, after
	// which no frame is taken and the writer exits.
	mu     sync.Mutex
	cond   sync.Cond
	out    coder
	closed bool
}

// open starts o's writer on conn.
func (o *outbox) open(conn net.Conn) {
	o.conn, o.cond.L = conn, &o.mu
	go o.writeLoop()
}

func (o *outbox) writeLoop() {
	var spare []byte
	o.mu.Lock()
	for {
		for len(o.out.buf) == 0 && !o.closed {
			o.cond.Wait()
		}
		if o.closed {
			o.mu.Unlock()
			return
		}
		buf := o.out.buf
		o.out.buf = spare[:0]
		o.mu.Unlock()
		if _, err := o.conn.Write(buf); err != nil {
			o.conn.Close() // the reader's next read fails and closes o
		}
		spare = buf
		o.mu.Lock()
	}
}

// closeLocked drops the frames not yet taken and stops the writer. Caller
// holds o.mu.
func (o *outbox) closeLocked() {
	o.closed = true
	o.cond.Signal()
}

// newClient starts a client's writer and reader on conn.
func newClient(conn net.Conn) *Client {
	c := &Client{pending: make(map[uint64]*rpc.Call)}
	c.open(conn)
	go c.readLoop()
	return c
}

// send starts a call, as rpc.Client.Go did, and returns it; it completes
// on Done, with its error raw.
func (c *Client) send(method string, args, reply wirer) *rpc.Call {
	call := &rpc.Call{ServiceMethod: method, Args: args, Reply: reply, Done: make(chan *rpc.Call, 1)}
	c.mu.Lock()
	err := c.sendLocked(call, args)
	c.mu.Unlock()
	if err != nil {
		finish(call, err)
	}
	return call
}

// sendLocked frames call for the writer and files it as pending under the
// next seq. A closed client sends nothing: the call fails with
// rpc.ErrShutdown. Caller holds c.mu.
func (c *Client) sendLocked(call *rpc.Call, args wirer) error {
	m := len(methods) - 1
	for m >= 0 && methods[m].name != call.ServiceMethod {
		m--
	}
	switch {
	case c.closed:
		return rpc.ErrShutdown
	case m < 0:
		return fmt.Errorf("serve: no method %q", call.ServiceMethod)
	}
	c.seq++
	c.cond.Signal() // the writer wakes once c.mu is released
	start := len(c.out.buf)
	if c.out.frame(c.seq, byte(m), args); len(c.out.buf)-start-4 > maxFrame {
		n := len(c.out.buf) - start
		c.out.buf = c.out.buf[:start]
		return fmt.Errorf("%w: %s call of %d bytes", errFrame, call.ServiceMethod, n)
	}
	c.pending[c.seq] = call
	return nil
}

// finish completes call with err. Its Done has room: each call completes
// once, by whichever of its sender, the reader or Close took it.
func finish(call *rpc.Call, err error) {
	call.Error = err
	call.Done <- call
}

// readLoop completes each pending call as its reply arrives, decoding the
// reply straight into the call's. When the connection fails, every call
// still pending fails with the read's error (io.ErrUnexpectedEOF for a
// server that hung up) and the client closes.
func (c *Client) readLoop() {
	frames := newFrameReader(c.conn)
	var in coder
	for {
		seq, kind, body, err := frames.next()
		if err == nil {
			err = c.complete(&in, seq, kind, body)
		}
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			for _, call := range c.shut() {
				finish(call, err)
			}
			return
		}
	}
}

// complete completes call seq with its reply; a reply for no pending call
// is dropped. A reply of no known kind is an error that ends the
// connection, failing its call with the rest.
func (c *Client) complete(in *coder, seq uint64, kind byte, body []byte) error {
	if kind != replyOK && kind != replyErr {
		return fmt.Errorf("%w: reply kind %d", errFrame, kind)
	}
	c.mu.Lock()
	call := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if call == nil {
		return nil
	}
	var err error
	if kind == replyOK {
		err = in.decode(body, call.Reply.(wirer))
	} else {
		var msg message
		if err = in.decode(body, &msg); err == nil {
			err = rpc.ServerError(msg)
		}
	}
	finish(call, err)
	return nil
}

// shut closes c to new calls and stops its writer, and hands back the
// calls still pending for the caller to fail.
func (c *Client) shut() map[uint64]*rpc.Call {
	c.mu.Lock()
	defer c.mu.Unlock()
	calls := c.pending
	c.pending = nil
	c.closeLocked()
	return calls
}

// Close tears down the connection. The calls still pending, and every
// call made after, fail with rpc.ErrShutdown; so does a second Close.
func (c *Client) Close() error {
	c.mu.Lock()
	closing := c.closing
	c.closing = true
	c.mu.Unlock()
	if closing {
		return rpc.ErrShutdown
	}
	for _, call := range c.shut() {
		finish(call, rpc.ErrShutdown)
	}
	return c.conn.Close()
}

// reasonErr maps each drop reason (split_drops_total's, trace.Reason*
// included) to the typed error a shed request's waiter receives; its values
// are every typed outcome the decoder knows.
var reasonErr = map[string]error{
	DropNotStarted:   ErrNotStarted,
	DropStopped:      ErrStopped,
	DropUnknownModel: ErrUnknownModel,
	DropDeadline:     ErrDeadlineExceeded,
	DropCanceled:     ErrCanceled,
	DropDrained:      ErrDrained,
	DropDeviceFault:  ErrDeviceFault,
	DropAdmission:    ErrAdmissionRejected,
}

// wireError is a typed serving error decoded on the client side of the
// wire: the remote message verbatim, unwrapping to the exported error.
type wireError struct {
	msg   string
	typed error
}

func (e *wireError) Error() string { return e.msg }

// Unwrap makes errors.Is(err, ErrDeadlineExceeded) etc. work on wire errors.
func (e *wireError) Unwrap() error { return e.typed }

// fromWire decodes an error a call returned: a message that begins with a
// typed error's message becomes a wireError unwrapping to it. No typed
// message is a prefix of another, so at most one matches. Every other
// error, nil included, passes through unchanged.
func fromWire(err error) error {
	if err == nil {
		return nil
	}
	msg := err.Error()
	for _, typed := range reasonErr {
		if strings.HasPrefix(msg, typed.Error()) {
			return &wireError{msg: msg, typed: typed}
		}
	}
	return err
}

// shedErrs are the lifecycle outcomes IsShed reports.
var shedErrs = []error{ErrStopped, ErrDeadlineExceeded, ErrCanceled, ErrDrained, ErrDeviceFault}

// IsShed reports whether err is one of the lifecycle shed/rejection
// outcomes — deadline, cancellation, drain, device fault, or server
// shutdown — as opposed to a transport or usage error. It accepts errors
// in-process and as a call returned them, raw or already decoded.
func IsShed(err error) bool {
	err = fromWire(err)
	for _, e := range shedErrs {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}
