package trace

import (
	"io"
	"strconv"

	"split/internal/jsonenc"
)

// The hand-written encoders below render events and intervals byte for
// byte as encoding/json rendered the string-detail structs they replaced:
// the same field order, the same omitted zero fields, the same float and
// string spellings.

// MarshalJSON renders the event as
//
//	{"at_ms":…,"kind":…,"req":…,"model":…,"block":…,"device":…,"batch":…,"part":…,"detail":…}
//
// with block, device, batch, part and detail omitted when zero or empty.
func (e Event) MarshalJSON() ([]byte, error) { return e.appendJSON(nil) }

func (e *Event) appendJSON(b []byte) ([]byte, error) {
	if err := jsonenc.CheckFinite(e.AtMs); err != nil {
		return b, err
	}
	b = append(b, `{"at_ms":`...)
	b = jsonenc.AppendFloat(b, e.AtMs)
	b = append(b, `,"kind":`...)
	b = jsonenc.AppendString(b, e.Kind.String())
	b = append(b, `,"req":`...)
	b = strconv.AppendInt(b, int64(e.ReqID), 10)
	b = append(b, `,"model":`...)
	b = jsonenc.AppendString(b, e.Model.String())
	b = appendJSONInt(b, `,"block":`, int(e.Block))
	b = appendJSONInt(b, `,"device":`, int(e.Device))
	b = appendJSONInt(b, `,"batch":`, int(e.Batch))
	b = appendJSONInt(b, `,"part":`, int(e.Part))
	b = appendJSONDetail(b, e.Note, &e.Args)
	return append(b, '}'), nil
}

// appendCSV renders the event as one WriteCSV row without its newline.
func (e *Event) appendCSV(b []byte) []byte {
	b = strconv.AppendFloat(b, e.AtMs, 'f', 4, 64)
	b = append(b, ',')
	b = append(b, e.Kind.String()...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.ReqID), 10)
	b = append(b, ',')
	b = append(b, e.Model.String()...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Block), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Device), 10)
	// A detail needs no escaping (see words), so quoting is two quotes.
	b = append(b, ",\""...)
	b = e.Note.appendTo(b, &e.Args)
	return append(b, '"')
}

// MarshalJSON renders the interval as
//
//	{"phase":…,"block":…,"device":…,"part":…,"batch":…,"start_ms":…,"end_ms":…,"detail":…}
//
// with part, batch and detail omitted when zero or empty.
func (iv Interval) MarshalJSON() ([]byte, error) {
	if err := jsonenc.CheckFinite(iv.StartMs); err != nil {
		return nil, err
	}
	if err := jsonenc.CheckFinite(iv.EndMs); err != nil {
		return nil, err
	}
	b := append([]byte(nil), `{"phase":`...)
	b = jsonenc.AppendString(b, iv.Phase)
	b = append(b, `,"block":`...)
	b = strconv.AppendInt(b, int64(iv.Block), 10)
	b = append(b, `,"device":`...)
	b = strconv.AppendInt(b, int64(iv.Device), 10)
	b = appendJSONInt(b, `,"part":`, iv.Part)
	b = appendJSONInt(b, `,"batch":`, iv.Batch)
	b = append(b, `,"start_ms":`...)
	b = jsonenc.AppendFloat(b, iv.StartMs)
	b = append(b, `,"end_ms":`...)
	b = jsonenc.AppendFloat(b, iv.EndMs)
	b = appendJSONDetail(b, iv.Note, &iv.Args)
	return append(b, '}'), nil
}

// appendJSONInt appends key and v unless v is zero.
func appendJSONInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendJSONDetail appends the "detail" member unless the note renders
// empty.
func appendJSONDetail(b []byte, n Note, args *[4]float64) []byte {
	const key = `,"detail":"`
	mark := len(b)
	b = n.appendTo(append(b, key...), args)
	if len(b) == mark+len(key) {
		return b[:mark]
	}
	return append(b, '"')
}

// lineWriter batches rendered lines and writes them out about 64 KiB at a
// time.
type lineWriter struct {
	w   io.Writer
	buf []byte
}

// event appends e's JSON line.
func (lw *lineWriter) event(e *Event) error {
	var err error
	if lw.buf, err = e.appendJSON(lw.buf); err != nil {
		return err
	}
	return lw.endLine()
}

// endLine terminates the line just appended and writes the buffer out once
// it is large.
func (lw *lineWriter) endLine() error {
	lw.buf = append(lw.buf, '\n')
	if len(lw.buf) < 64<<10 {
		return nil
	}
	return lw.flush()
}

func (lw *lineWriter) flush() error {
	if len(lw.buf) == 0 {
		return nil
	}
	_, err := lw.w.Write(lw.buf)
	lw.buf = lw.buf[:0]
	return err
}

// WriteJSONL writes events as JSON lines, one Event.MarshalJSON per line.
func WriteJSONL(w io.Writer, events []Event) error {
	lw := lineWriter{w: w}
	for i := range events {
		if err := lw.event(&events[i]); err != nil {
			return err
		}
	}
	return lw.flush()
}
