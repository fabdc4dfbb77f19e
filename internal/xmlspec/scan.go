package xmlspec

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// decoder is a pull scanner over one document. It checks what
// encoding/xml's Decoder checks in strict mode, with the same messages,
// and hands names and text out as sub-slices of the input; only text
// that needed decoding is copied, to buf. It fails by panicking with a
// decodeError, which try recovers.
type decoder struct {
	data  []byte
	pos   int
	name  []byte   // raw name of the last start or end tag
	empty bool     // the last start tag was self-closing
	buf   []byte   // decoded and joined text
	open  [][]byte // the elements skip is inside
}

const (
	tokEOF = iota
	tokStart
	tokEnd
)

func (d *decoder) fail(pos int, msg string) {
	panic(decodeError{&xml.SyntaxError{Msg: msg, Line: 1 + bytes.Count(d.data[:pos], []byte{'\n'})}})
}

// getc consumes one byte; the document may not end here.
func (d *decoder) getc() byte {
	if d.pos == len(d.data) {
		d.fail(d.pos, "unexpected EOF")
	}
	d.pos++
	return d.data[d.pos-1]
}

func (d *decoder) space() {
	for d.pos < len(d.data) && strings.IndexByte(" \r\n\t", d.data[d.pos]) >= 0 {
		d.pos++
	}
}

// root scans the prolog through the root element's start-tag name. A
// document without one is io.EOF.
func (d *decoder) root() []byte {
	switch d.next(nil) {
	case tokEOF:
		panic(decodeError{io.EOF})
	case tokEnd:
		d.fail(d.pos, "unexpected end element </"+string(localName(d.name))+">")
	}
	return d.name
}

// next scans to the next tag, collecting character data into cd (or
// checking and dropping it when cd is nil) and checking and dropping
// comments, processing instructions and directives. It stops after a
// start tag's name, leaving the attributes to attr, or after an end tag.
func (d *decoder) next(cd *[]byte) int {
	for d.pos < len(d.data) {
		if d.data[d.pos] != '<' {
			d.chardata(cd, false)
			continue
		}
		d.pos++
		switch d.getc() {
		case '/':
			d.name = d.nsName("expected element name after </")
			d.space()
			if d.getc() != '>' {
				d.fail(d.pos, "invalid characters between </"+string(localName(d.name))+" and >")
			}
			return tokEnd
		case '?':
			d.procInst()
		case '!':
			d.bang(cd)
		default:
			d.pos--
			d.name, d.empty = d.nsName("expected element name after <"), false
			return tokStart
		}
	}
	return tokEOF
}

// attr reads the next attribute of the start tag being scanned. At the
// tag's end ok is false and d.empty says whether it was self-closing. A
// decoded value sits in d.buf, which the caller truncates.
func (d *decoder) attr() (name, value []byte, ok bool) {
	d.space()
	if c := d.getc(); c == '/' || c == '>' {
		if c == '/' && d.getc() != '>' {
			d.fail(d.pos, "expected /> in element")
		}
		d.empty = c == '/'
		return nil, nil, false
	}
	d.pos--
	name = d.nsName("expected attribute name in element")
	d.space()
	if d.getc() != '=' {
		d.fail(d.pos, "attribute name without = in element")
	}
	d.space()
	q := d.getc()
	if q != '"' && q != '\'' {
		d.fail(d.pos, "unquoted or missing attribute value in element")
	}
	value = d.text(q, false)
	return name, value, true
}

// nsName scans a tag or attribute name: an XML name with at most one
// colon. missing is the error when there is none.
func (d *decoder) nsName(missing string) []byte {
	name := d.scanName()
	if name == nil || bytes.Count(name, []byte{':'}) > 1 {
		d.fail(d.pos, missing)
	}
	return name
}

// scanName scans an XML name, or returns nil if none starts at d.pos.
func (d *decoder) scanName() []byte {
	start := d.pos
	for d.pos < len(d.data) && (d.data[d.pos] >= utf8.RuneSelf || isNameByte(d.data[d.pos])) {
		d.pos++
	}
	if d.pos == len(d.data) {
		d.fail(d.pos, "unexpected EOF")
	}
	if d.pos == start {
		return nil
	}
	if name := d.data[start:d.pos]; !isName(name) {
		d.fail(d.pos, "invalid XML name: "+string(name))
	}
	return d.data[start:d.pos]
}

// splitName splits a raw name into prefix and local part as
// encoding/xml does: a colon splits only with text on both sides.
func splitName(raw []byte) (prefix, local []byte) {
	if i := bytes.IndexByte(raw, ':'); i > 0 && i < len(raw)-1 {
		return raw[:i], raw[i+1:]
	}
	return nil, raw
}

func localName(raw []byte) []byte {
	_, local := splitName(raw)
	return local
}

// closes checks that an end tag matches its start tag, prefix included.
func (d *decoder) closes(start, end []byte) {
	sp, sl := splitName(start)
	ep, el := splitName(end)
	if !bytes.Equal(sl, el) {
		d.fail(d.pos, "element <"+string(sl)+"> closed by </"+string(el)+">")
	}
	if !bytes.Equal(sp, ep) {
		if ep == nil {
			ep = []byte(`""`)
		}
		d.fail(d.pos, "element <"+string(sl)+"> in space "+string(sp)+" closed by </"+string(el)+"> in space "+string(ep))
	}
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isName reports whether s is an XML name. Names with non-ASCII bytes go
// through encoding/xml's Unicode name tables, which it exposes only by
// checking a processing instruction's target.
func isName(s []byte) bool {
	if len(s) == 0 || s[0] == '-' || s[0] == '.' || '0' <= s[0] && s[0] <= '9' {
		return false
	}
	for _, c := range s {
		if c >= utf8.RuneSelf {
			return xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: string(s)}) == nil
		}
	}
	return true
}

// procInst checks a processing instruction after its "<?". An xml
// declaration may name only version 1.0 and UTF-8.
func (d *decoder) procInst() {
	target := d.scanName()
	if target == nil {
		d.fail(d.pos, "expected target name after <?")
	}
	d.space()
	n := bytes.Index(d.data[d.pos:], []byte("?>"))
	if n < 0 {
		d.fail(len(d.data), "unexpected EOF")
	}
	body := d.data[d.pos : d.pos+n]
	if d.pos += n + 2; string(target) != "xml" {
		return
	}
	if v := declParam(body, "version="); len(v) > 0 && string(v) != "1.0" {
		panic(decodeError{fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", v)})
	}
	if e := declParam(body, "encoding="); len(e) > 0 && !strings.EqualFold(string(e), "utf-8") {
		panic(decodeError{fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", e)})
	}
}

// declParam finds param's quoted value in an xml declaration as
// encoding/xml does: at the first occurrence followed by a quote.
func declParam(s []byte, param string) []byte {
	for i := 0; i < len(s); {
		k := bytes.Index(s[i:], []byte(param)) + len(param)
		if k < len(param) || i+k >= len(s) {
			return nil
		}
		if i += k + 1; s[i-1] == '\'' || s[i-1] == '"' {
			if j := bytes.IndexByte(s[i:], s[i-1]); j >= 0 {
				return s[i : i+j]
			}
			return nil
		}
	}
	return nil
}

// bang checks a comment, CDATA section or directive after its "<!".
// A CDATA section is character data like any other.
func (d *decoder) bang(cd *[]byte) {
	switch c := d.getc(); c {
	case '-':
		if d.getc() != '-' {
			d.fail(d.pos, "invalid sequence <!- not part of <!--")
		}
		n := bytes.Index(d.data[d.pos:], []byte("--"))
		if n < 0 || d.pos+n+2 == len(d.data) {
			d.fail(len(d.data), "unexpected EOF")
		}
		if d.pos += n + 3; d.data[d.pos-1] != '>' {
			d.fail(d.pos, `invalid sequence "--" not allowed in comments`)
		}
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if d.getc() != "CDATA["[i] {
				d.fail(d.pos, "invalid <![ sequence")
			}
		}
		d.chardata(cd, true)
	default:
		// A directive such as <!DOCTYPE ...>, dropped at its '>'. Quoted
		// text, nested <...> and <!--...--> do not end it.
		var quote byte
		for depth := 0; ; {
			c = d.getc()
			if quote == 0 && c == '>' && depth == 0 {
				return
			}
		again:
			switch {
			case c == quote:
				quote = 0
			case quote != 0:
			case c == '\'' || c == '"':
				quote = c
			case c == '>':
				depth--
			case c == '<':
				for i := 0; i < len("!--"); i++ {
					if c = d.getc(); c != "!--"[i] {
						depth++
						goto again
					}
				}
				n := bytes.Index(d.data[d.pos:], []byte("-->"))
				if n < 0 {
					d.fail(len(d.data), "unexpected EOF")
				}
				d.pos += n + 3
			}
		}
	}
}

// chardata reads a run of character data, or a CDATA section, into
// *cd, or checks and drops it when cd is nil. Once an element has a
// second run, its text is the tail of d.buf and later runs append to it.
func (d *decoder) chardata(cd *[]byte, cdata bool) {
	if cd != nil && len(*cd) > 0 && (len(*cd) > len(d.buf) || &(*cd)[0] != &d.buf[len(d.buf)-len(*cd)]) {
		d.buf = append(d.buf, *cd...) // the first run, from the input
	}
	mark := len(d.buf)
	run := d.text(0, cdata)
	switch {
	case cd == nil:
		d.buf = d.buf[:mark]
	case len(*cd) == 0:
		*cd = run
	default:
		if len(d.buf) == mark { // run is the input's own bytes
			d.buf = append(d.buf, run...)
		}
		*cd = d.buf[mark-len(*cd):]
	}
}

// text reads character data up to the next '<', the closing quote of an
// attribute value (quote != 0), or the "]]>" of a CDATA section. It
// returns the input's own bytes if they needed no decoding, else it
// decodes them onto d.buf and returns that tail.
func (d *decoder) text(quote byte, cdata bool) []byte {
	data, start, mark := d.data, d.pos, -1
	from, end := start, -1 // data[from:i] is plain text not yet in d.buf
	var b0, b1 byte
	for i := start; end < 0; {
		if i == len(data) {
			if cdata {
				d.fail(i, "unexpected EOF in CDATA section")
			}
			end, d.pos = i, i
			break
		}
		switch b := data[i]; {
		case quote == 0 && b0 == ']' && b1 == ']' && b == '>':
			if !cdata {
				d.fail(i+1, "unescaped ]]> not in CDATA section")
			}
			end, d.pos = i-2, i+1
		case b == '<' && !cdata:
			if quote != 0 {
				d.fail(i+1, "unescaped < inside quoted string")
			}
			end, d.pos = i, i
		case quote != 0 && b == quote:
			end, d.pos = i, i+1
		case b == '&' && !cdata || b == '\r':
			if mark < 0 {
				mark = len(d.buf)
			}
			d.buf = append(d.buf, data[from:i]...)
			if b == '&' {
				i = d.reference(i)
				from, b0, b1 = i, 0, 0
				continue
			}
			d.buf = append(d.buf, '\n')
			if from = i + 1; from < len(data) && data[from] == '\n' {
				from++ // \r\n is one \n
			}
			fallthrough
		default:
			b0, b1, i = b1, b, i+1
		}
	}
	out := data[start:end]
	if mark >= 0 {
		d.buf = append(d.buf, data[min(from, end):end]...)
		out = d.buf[mark:]
	}
	if msg := checkChars(out); msg != "" {
		d.fail(d.pos, msg)
	}
	if quote != 0 && end == len(data) {
		d.fail(d.pos, "unexpected EOF")
	}
	return out
}

var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// reference decodes the character or entity reference at data[i] == '&'
// onto d.buf and returns the index after it.
func (d *decoder) reference(i int) int {
	data, j, base, digits := d.data, i+1, 0, ""
	if j < len(data) && data[j] == '#' {
		base, digits, j = 10, "0123456789", j+1
		if j < len(data) && data[j] == 'x' {
			base, digits, j = 16, "0123456789abcdefABCDEF", j+1
		}
	}
	k := j
	for j < len(data) && (base == 0 && (data[j] >= utf8.RuneSelf || isNameByte(data[j])) || strings.IndexByte(digits, data[j]) >= 0) {
		j++
	}
	if j == len(data) {
		d.fail(j, "unexpected EOF")
	}
	if data[j] != ';' {
		d.fail(j, "invalid character entity "+string(data[i:j])+" (no semicolon)")
	}
	r, ok := entities[string(data[k:j])]
	if base > 0 {
		n, err := strconv.ParseUint(string(data[k:j]), base, 64)
		r, ok = rune(n), err == nil && n <= unicode.MaxRune
	}
	if j++; !ok {
		d.fail(j, "invalid character entity "+string(data[i:j]))
	}
	d.buf = utf8.AppendRune(d.buf, r)
	return j
}

// checkChars returns why s is not XML character data, or "".
func checkChars(s []byte) string {
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			if r, n = utf8.DecodeRune(s[i:]); r == utf8.RuneError && n == 1 {
				return "invalid UTF-8"
			}
		}
		if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r > 0xD7FF && r < 0xE000 || r == 0xFFFE || r == 0xFFFF {
			return fmt.Sprintf("illegal character code %U", r)
		}
		i += n
	}
	return ""
}
