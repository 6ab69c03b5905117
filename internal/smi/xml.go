package smi

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// The document below carries the fields of the real `nvidia-smi -q -x`
// report that the paper's Pseudocode 1 extracts: per-GPU <minor_number>,
// the <processes><process_info><pid> list, and <fb_memory_usage><used> for
// the memory-based allocation policy. Both directions are written by hand
// against that one schema: the allocator surveys the devices through this
// text on every placement decision, and a reflection codec makes the survey
// the most expensive step of a dispatch.

const xmlHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// RenderXML serializes a report into the `nvidia-smi -q -x` document format.
// The error is always nil.
func RenderXML(r Report) (string, error) {
	size := 256
	for _, g := range r.GPUs {
		size += 1024 + 256*len(g.Processes)
	}
	b := make([]byte, 0, size)
	b = append(b, xmlHeader...)
	b = append(b, "<nvidia_smi_log>\n  <timestamp>T+"...)
	b = strconv.AppendFloat(b, r.Timestamp.Seconds(), 'f', 3, 64)
	b = append(b, "s</timestamp>\n"...)
	b = appendLeaf(b, "  ", "driver_version", r.DriverVersion)
	b = appendLeaf(b, "  ", "cuda_version", r.CUDAVersion)
	b = appendQuantity(b, "  ", "attached_gpus", int64(len(r.GPUs)), "")
	for _, g := range r.GPUs {
		b = append(b, `  <gpu id="`...)
		b = appendEscaped(b, g.BusID)
		b = append(b, "\">\n"...)
		b = appendLeaf(b, "    ", "product_name", g.ProductName)
		b = appendLeaf(b, "    ", "uuid", g.UUID)
		b = appendQuantity(b, "    ", "minor_number", int64(g.MinorNumber), "")
		if g.FanPercent >= 0 {
			b = appendQuantity(b, "    ", "fan_speed", int64(g.FanPercent), " %")
		} else {
			b = appendLeaf(b, "    ", "fan_speed", "N/A")
		}
		b = appendLeaf(b, "    ", "performance_state", g.PerfState)
		b = append(b, "    <fb_memory_usage>\n"...)
		b = appendQuantity(b, "      ", "total", g.MemoryTotalMiB, " MiB")
		b = appendQuantity(b, "      ", "used", g.MemoryUsedMiB, " MiB")
		b = appendQuantity(b, "      ", "free", g.MemoryTotalMiB-g.MemoryUsedMiB, " MiB")
		b = append(b, "    </fb_memory_usage>\n    <utilization>\n"...)
		b = appendQuantity(b, "      ", "gpu_util", int64(g.UtilizationPct), " %")
		b = appendQuantity(b, "      ", "memory_util", g.MemoryUsedMiB*100/max(g.MemoryTotalMiB, 1), " %")
		b = append(b, "    </utilization>\n    <temperature>\n"...)
		b = appendQuantity(b, "      ", "gpu_temp", int64(g.TemperatureC), " C")
		b = append(b, "    </temperature>\n    <power_readings>\n"...)
		b = appendQuantity(b, "      ", "power_draw", int64(g.PowerDrawW), " W")
		b = appendQuantity(b, "      ", "power_limit", int64(g.PowerLimitW), " W")
		b = append(b, "    </power_readings>\n"...)
		if len(g.Processes) == 0 {
			b = append(b, "    <processes></processes>\n"...)
		} else {
			b = append(b, "    <processes>\n"...)
			for _, p := range g.Processes {
				b = append(b, "      <process_info>\n"...)
				b = appendQuantity(b, "        ", "pid", int64(p.PID), "")
				b = appendLeaf(b, "        ", "type", p.Type)
				b = appendLeaf(b, "        ", "process_name", p.Name)
				b = appendQuantity(b, "        ", "used_memory", p.UsedMemoryMiB, " MiB")
				b = append(b, "      </process_info>\n"...)
			}
			b = append(b, "    </processes>\n"...)
		}
		b = append(b, "  </gpu>\n"...)
	}
	b = append(b, "</nvidia_smi_log>\n"...)
	return string(b), nil
}

// appendLeaf writes one `<name>text</name>` line.
func appendLeaf(b []byte, indent, name, text string) []byte {
	b = appendOpen(b, indent, name)
	b = appendEscaped(b, text)
	return appendClose(b, name)
}

// appendQuantity writes one `<name>v unit</name>` line; unit carries its
// leading space ("" for a bare number).
func appendQuantity(b []byte, indent, name string, v int64, unit string) []byte {
	b = appendOpen(b, indent, name)
	b = strconv.AppendInt(b, v, 10)
	b = append(b, unit...)
	return appendClose(b, name)
}

func appendOpen(b []byte, indent, name string) []byte {
	b = append(b, indent...)
	b = append(b, '<')
	b = append(b, name...)
	return append(b, '>')
}

func appendClose(b []byte, name string) []byte {
	b = append(b, "</"...)
	b = append(b, name...)
	return append(b, ">\n"...)
}

// appendEscaped writes s as XML character data or an attribute value, with
// the escapes encoding/xml's marshaller uses: the five markup characters,
// tab, newline and carriage return as references, and anything outside
// XML's character range as U+FFFD.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if inCharacterRange(r) && (r != utf8.RuneError || width != 1) {
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i-width]...)
		b = append(b, esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// inCharacterRange reports whether r is a character XML 1.0 allows in a
// document (https://www.w3.org/TR/xml/#charsets).
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// FieldError reports an nvidia-smi field that could not be read. The
// by-memory allocation policy ranks devices by <fb_memory_usage> readings,
// so a missing or "N/A" memory field must surface as an error: silently
// parsing it as zero would make a broken device look like the least-loaded
// one and attract every job. A <gpu> block without a readable
// <minor_number> is the same failure one step earlier — it would pass for
// device 0 — and gets the same error.
type FieldError struct {
	// GPU is the device's minor number; for an unreadable minor_number,
	// the position of the <gpu> block in the document.
	GPU int
	// Field is the XML path of the unreadable field.
	Field string
	// Raw is the field text as received ("" when the tag was absent).
	Raw string
}

// Error implements the error interface.
func (e *FieldError) Error() string {
	return fmt.Sprintf("smi: GPU %d: unreadable %s field %q", e.GPU, e.Field, e.Raw)
}

// elem names the elements of the nvidia_smi_log tree the reader looks at.
// Containers come first, then the leaves whose text is read.
type elem uint8

const (
	elSkip elem = iota // an element the reader has no use for, and all below it
	elLog
	elGPU
	elFBMemory
	elUtilization
	elTemperature
	elPower
	elProcesses
	elProcessInfo

	elTimestamp // first leaf
	elDriverVersion
	elCUDAVersion
	elAttachedGPUs
	elProductName
	elUUID
	elMinorNumber
	elFanSpeed
	elPerfState
	elMemTotal
	elMemUsed
	elGPUUtil
	elGPUTemp
	elPowerDraw
	elPowerLimit
	elPID
	elProcType
	elProcName
	elProcMemory
)

func (k elem) leaf() bool { return k >= elTimestamp }

// childOf places the element `name` found directly inside `parent`. The
// same name elsewhere in the tree (a <used> under <bar1_memory_usage>, a
// <minor_number> inside an unknown block) is not the field and is skipped.
func childOf(parent elem, name string) elem {
	switch parent {
	case elLog:
		switch name {
		case "timestamp":
			return elTimestamp
		case "driver_version":
			return elDriverVersion
		case "cuda_version":
			return elCUDAVersion
		case "attached_gpus":
			return elAttachedGPUs
		case "gpu":
			return elGPU
		}
	case elGPU:
		switch name {
		case "product_name":
			return elProductName
		case "uuid":
			return elUUID
		case "minor_number":
			return elMinorNumber
		case "fan_speed":
			return elFanSpeed
		case "performance_state":
			return elPerfState
		case "fb_memory_usage":
			return elFBMemory
		case "utilization":
			return elUtilization
		case "temperature":
			return elTemperature
		case "power_readings":
			return elPower
		case "processes":
			return elProcesses
		}
	case elFBMemory:
		switch name {
		case "total":
			return elMemTotal
		case "used":
			return elMemUsed
		}
	case elUtilization:
		if name == "gpu_util" {
			return elGPUUtil
		}
	case elTemperature:
		if name == "gpu_temp" {
			return elGPUTemp
		}
	case elPower:
		switch name {
		case "power_draw":
			return elPowerDraw
		case "power_limit":
			return elPowerLimit
		}
	case elProcesses:
		if name == "process_info" {
			return elProcessInfo
		}
	case elProcessInfo:
		switch name {
		case "pid":
			return elPID
		case "type":
			return elProcType
		case "process_name":
			return elProcName
		case "used_memory":
			return elProcMemory
		}
	}
	return elSkip
}

// ParseXML decodes an `nvidia-smi -q -x` document back into a Report. This is
// the consumer half of the paper's Pseudocode 1 (there done with
// BeautifulSoup); GYAN's allocators call it rather than touching the cluster
// directly. Cosmetic fields (fan, power, temperature, timestamp) parse
// forgivingly as in the paper's soup-based extraction, but the fields the
// allocation policies depend on — <minor_number> and the <fb_memory_usage>
// readings — return a *FieldError when missing or "N/A", and two <gpu> blocks
// claiming one minor number are an error.
//
// The reader is one forward pass over the text. It understands the XML
// nvidia-smi writes — an XML declaration, a <!DOCTYPE> line, comments,
// elements with attributes, character data, the five named entities and
// numeric character references — validates all of it, including the
// subtrees it skips, and refuses the rest of XML (CDATA sections, processing
// instructions, namespace prefixes, an internal DTD subset) along with
// anything malformed: a document the reader cannot vouch for must not become
// a survey.
func ParseXML(doc string) (Report, error) {
	// 16 is deeper than any nvidia-smi document nests; append grows past it.
	p := xmlReader{doc: doc, open: make([]frame, 0, 16)}
	if err := p.run(); err != nil {
		return Report{}, err
	}
	return p.rep, nil
}

// xmlReader is the state of one ParseXML pass.
type xmlReader struct {
	doc string
	i   int // next unread byte

	open     []frame // the elements enclosing doc[i], outermost first
	rootDone bool    // the root element has closed
	text     string  // character data of the open field so far

	rep Report

	// The <gpu> block and <process_info> row being read. The three fields a
	// policy depends on are kept as text until </gpu>, where they are
	// checked in a fixed order whatever order the document listed them in.
	gpu                         GPUInfo
	minorRaw, totalRaw, usedRaw string
	haveMinor                   bool
	proc                        ProcessInfo
}

// frame is one open element.
type frame struct {
	name string
	kind elem
}

func (p *xmlReader) errorf(format string, args ...any) error {
	return fmt.Errorf("smi: parse: offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

func (p *xmlReader) run() error {
	if strings.HasPrefix(p.doc, "<?xml") {
		if err := p.declaration(); err != nil {
			return err
		}
	}
	for p.i < len(p.doc) {
		var err error
		switch rest := p.doc[p.i:]; {
		case rest[0] != '<':
			err = p.characterData()
		case len(rest) > 1 && rest[1] == '/':
			err = p.endTag()
		case strings.HasPrefix(rest, "<!--"):
			err = p.comment()
		case strings.HasPrefix(rest, "<!DOCTYPE"):
			err = p.doctype()
		case len(rest) > 1 && (rest[1] == '!' || rest[1] == '?'):
			err = p.errorf("unsupported markup %q", rest[:min(len(rest), 9)])
		default:
			err = p.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(p.open) > 0 {
		return p.errorf("unexpected end of document inside <%s>", p.open[len(p.open)-1].name)
	}
	if !p.rootDone {
		return p.errorf("no <nvidia_smi_log> element")
	}
	return nil
}

// characterData reads text up to the next tag: kept when it is a field's,
// checked and dropped elsewhere in the tree, blank outside it.
func (p *xmlReader) characterData() error {
	if len(p.open) == 0 {
		before := p.i
		if p.space(); p.i == before {
			return p.errorf("text outside the root element")
		}
		return nil
	}
	leaf := p.open[len(p.open)-1].kind.leaf()
	s, err := p.characters(0, leaf)
	if leaf {
		p.text += s
	}
	return err
}

func (p *xmlReader) startTag() error {
	p.i++
	name, err := p.name()
	if err != nil {
		return err
	}
	kind := elLog
	switch {
	case len(p.open) > 0:
		parent := p.open[len(p.open)-1]
		if parent.kind.leaf() {
			return p.errorf("element <%s> inside the <%s> field", name, parent.name)
		}
		kind = childOf(parent.kind, name)
	case p.rootDone:
		return p.errorf("second root element <%s>", name)
	case name != "nvidia_smi_log":
		return p.errorf("root element is <%s>, want <nvidia_smi_log>", name)
	}
	id, selfClosed, err := p.attributes(name)
	if err != nil {
		return err
	}
	switch kind {
	case elGPU:
		p.gpu = GPUInfo{BusID: id}
		p.minorRaw, p.totalRaw, p.usedRaw, p.haveMinor = "", "", "", false
	case elProcessInfo:
		p.proc = ProcessInfo{}
	}
	p.text = ""
	if selfClosed {
		return p.closeElement(kind)
	}
	p.open = append(p.open, frame{name, kind})
	return nil
}

func (p *xmlReader) endTag() error {
	p.i += 2
	name, err := p.name()
	if err != nil {
		return err
	}
	p.space()
	if !p.eat('>') {
		return p.errorf("unterminated </%s", name)
	}
	if len(p.open) == 0 {
		return p.errorf("</%s> closes nothing", name)
	}
	top := p.open[len(p.open)-1]
	if top.name != name {
		return p.errorf("</%s> closes <%s>", name, top.name)
	}
	p.open = p.open[:len(p.open)-1]
	return p.closeElement(top.kind)
}

// closeElement stores what the element that just ended contributes to the
// report.
func (p *xmlReader) closeElement(kind elem) error {
	text := p.text
	switch kind {
	case elLog:
		p.rootDone = true
	case elTimestamp:
		p.rep.Timestamp = parseTimestamp(text)
	case elDriverVersion:
		p.rep.DriverVersion = text
	case elCUDAVersion:
		p.rep.CUDAVersion = text
	case elAttachedGPUs:
		if _, err := parseCount(text); err != nil {
			return p.errorf("attached_gpus %q is not a number", text)
		}
	case elGPU:
		return p.closeGPU()
	case elProductName:
		p.gpu.ProductName = text
	case elUUID:
		p.gpu.UUID = text
	case elMinorNumber:
		p.minorRaw, p.haveMinor = text, true
	case elFanSpeed:
		p.gpu.FanPercent = parseFan(text)
	case elPerfState:
		p.gpu.PerfState = text
	case elMemTotal:
		p.totalRaw = text
	case elMemUsed:
		p.usedRaw = text
	case elGPUUtil:
		p.gpu.UtilizationPct = parsePct(text)
	case elGPUTemp:
		p.gpu.TemperatureC = parseUnit(text, "C")
	case elPowerDraw:
		p.gpu.PowerDrawW = parseUnit(text, "W")
	case elPowerLimit:
		p.gpu.PowerLimitW = parseUnit(text, "W")
	case elProcessInfo:
		p.gpu.Processes = append(p.gpu.Processes, p.proc)
	case elPID:
		pid, err := parseCount(text)
		if err != nil {
			return p.errorf("pid %q is not a number", text)
		}
		p.proc.PID = pid
	case elProcType:
		p.proc.Type = text
	case elProcName:
		p.proc.Name = text
	case elProcMemory:
		p.proc.UsedMemoryMiB = int64(parseUnit(text, "MiB"))
	}
	return nil
}

// closeGPU checks the fields a placement depends on and files the device.
func (p *xmlReader) closeGPU() error {
	minor, err := parseMinor(len(p.rep.GPUs), p.minorRaw, p.haveMinor)
	if err != nil {
		return err
	}
	for _, g := range p.rep.GPUs {
		if g.MinorNumber == minor {
			return p.errorf("two <gpu> blocks with minor_number %d", minor)
		}
	}
	p.gpu.MinorNumber = minor
	if p.gpu.MemoryTotalMiB, err = parseMiBStrict(minor, "fb_memory_usage/total", p.totalRaw); err != nil {
		return err
	}
	if p.gpu.MemoryUsedMiB, err = parseMiBStrict(minor, "fb_memory_usage/used", p.usedRaw); err != nil {
		return err
	}
	p.rep.GPUs = append(p.rep.GPUs, p.gpu)
	return nil
}

func (p *xmlReader) eat(c byte) bool {
	if p.i < len(p.doc) && p.doc[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *xmlReader) space() {
	for p.i < len(p.doc) {
		switch p.doc[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// name reads an element or attribute name: ASCII letters, digits, '_', '-'
// and '.', not starting with a digit, '-' or '.'. nvidia-smi writes no
// others, and a ':' would be a namespace prefix.
func (p *xmlReader) name() (string, error) {
	start := p.i
	if p.i < len(p.doc) && nameBytes[p.doc[p.i]] == nameStart {
		for p.i++; p.i < len(p.doc) && nameBytes[p.doc[p.i]] != 0; p.i++ {
		}
	}
	if p.i == start {
		return "", p.errorf("expected a name")
	}
	return p.doc[start:p.i], nil
}

// nameBytes classes the bytes a name may start with and continue with.
const (
	nameStart = 1
	nameRest  = 2
)

var nameBytes = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			t[c] = nameStart
		case c == '-' || c == '.' || '0' <= c && c <= '9':
			t[c] = nameRest
		}
	}
	return t
}()

// attributes reads the rest of a start tag after its name, returning the
// value of the `id` attribute (the PCI bus id on <gpu>; ignored elsewhere)
// and whether the tag closed itself.
func (p *xmlReader) attributes(tag string) (id string, selfClosed bool, err error) {
	seenID := false
	for {
		p.space()
		if p.eat('>') {
			return id, false, nil
		}
		if p.eat('/') {
			if !p.eat('>') {
				return "", false, p.errorf("expected '>' after '/' in <%s>", tag)
			}
			return id, true, nil
		}
		if p.i == len(p.doc) {
			return "", false, p.errorf("unterminated <%s", tag)
		}
		attr, value, err := p.attribute()
		if err != nil {
			return "", false, err
		}
		if attr == "id" {
			if seenID {
				return "", false, p.errorf("duplicate id attribute in <%s>", tag)
			}
			id, seenID = value, true
		}
	}
}

// attribute reads one name="value" pair.
func (p *xmlReader) attribute() (name, value string, err error) {
	if name, err = p.name(); err != nil {
		return "", "", err
	}
	p.space()
	if !p.eat('=') {
		return "", "", p.errorf("attribute %s without a value", name)
	}
	p.space()
	if !p.eat('"') && !p.eat('\'') {
		return "", "", p.errorf("attribute %s value is not quoted", name)
	}
	quote := p.doc[p.i-1]
	if value, err = p.characters(quote, true); err != nil {
		return "", "", err
	}
	if !p.eat(quote) {
		return "", "", p.errorf("unterminated value of attribute %s", name)
	}
	return name, value, nil
}

// characters scans character data up to the next '<' (quote == 0) or an
// attribute value up to its closing quote, checking that every byte of it is
// text XML allows. With want it returns the text with references expanded
// and line ends normalized; the common reference-free run is returned as a
// substring of the document, without copying.
func (p *xmlReader) characters(quote byte, want bool) (string, error) {
	doc := p.doc
	var buf []byte // the expanded text, once a reference or '\r' forces a copy
	run := p.i     // start of the raw run not yet copied into buf
	for p.i < len(doc) {
		c := doc[p.i]
		if quote == 0 && c == '<' || quote != 0 && c == quote {
			break
		}
		switch {
		case c == '<':
			return "", p.errorf("'<' inside an attribute value")
		case c == '&':
			r, n, err := p.reference()
			if err != nil {
				return "", err
			}
			if want {
				buf = utf8.AppendRune(append(buf, doc[run:p.i]...), r)
			}
			p.i += n
			run = p.i
		case c == '\r':
			// XML reads "\r\n" and a lone "\r" as "\n".
			if want {
				buf = append(append(buf, doc[run:p.i]...), '\n')
			}
			p.i++
			if p.i < len(doc) && doc[p.i] == '\n' {
				p.i++
			}
			run = p.i
		case c == '>' && quote == 0 && p.i-run >= 2 && doc[p.i-2:p.i] == "]]":
			return "", p.errorf("']]>' in character data")
		case c < 0x20 && c != '\t' && c != '\n':
			return "", p.errorf("control character %#x", c)
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(doc[p.i:])
			if r == utf8.RuneError && n == 1 {
				return "", p.errorf("invalid UTF-8")
			}
			if !inCharacterRange(r) {
				return "", p.errorf("character %U is not allowed in XML", r)
			}
			p.i += n
		default:
			p.i++
		}
	}
	switch {
	case !want:
		return "", nil
	case buf == nil:
		return doc[run:p.i], nil
	}
	return string(append(buf, doc[run:p.i]...)), nil
}

// reference decodes the entity or character reference at p.i (an '&'),
// returning its character and its length in the document.
func (p *xmlReader) reference() (rune, int, error) {
	rest := p.doc[p.i+1:]
	end := strings.IndexByte(rest[:min(len(rest), 12)], ';')
	if end < 0 {
		return 0, 0, p.errorf("'&' does not start a reference")
	}
	ref := rest[:end]
	switch ref {
	case "lt":
		return '<', end + 2, nil
	case "gt":
		return '>', end + 2, nil
	case "amp":
		return '&', end + 2, nil
	case "apos":
		return '\'', end + 2, nil
	case "quot":
		return '"', end + 2, nil
	}
	var n uint64
	var err error
	switch {
	case strings.HasPrefix(ref, "#x"):
		n, err = strconv.ParseUint(ref[2:], 16, 32)
	case strings.HasPrefix(ref, "#"):
		n, err = strconv.ParseUint(ref[1:], 10, 32)
	default:
		return 0, 0, p.errorf("unknown entity &%s;", ref)
	}
	if err != nil || !inCharacterRange(rune(n)) {
		return 0, 0, p.errorf("bad character reference &%s;", ref)
	}
	return rune(n), end + 2, nil
}

// declaration reads the `<?xml version="1.0" encoding="UTF-8"?>` line, which
// may only open the document. A version other than 1.0 or an encoding other
// than UTF-8 is a document this reader would misread.
func (p *xmlReader) declaration() error {
	p.i += len("<?xml")
	for {
		before := p.i
		p.space()
		if strings.HasPrefix(p.doc[p.i:], "?>") {
			p.i += 2
			return nil
		}
		if p.i == before {
			return p.errorf("malformed XML declaration")
		}
		name, value, err := p.attribute()
		if err != nil {
			return err
		}
		switch {
		case strings.Contains(p.doc[before:p.i], "&"):
			return p.errorf("reference in the XML declaration")
		case name == "version" && value == "1.0":
		case name == "encoding" && strings.EqualFold(value, "UTF-8"):
		case name == "standalone" && (value == "yes" || value == "no"):
		default:
			return p.errorf("unsupported XML declaration %s=%q", name, value)
		}
	}
}

// doctype skips `<!DOCTYPE nvidia_smi_log SYSTEM "nvsmi_device_v11.dtd">`.
// The DTD is never fetched; an internal subset could define entities this
// reader would not expand, so it is refused.
func (p *xmlReader) doctype() error {
	if len(p.open) > 0 || p.rootDone {
		return p.errorf("<!DOCTYPE> after the root element opened")
	}
	var quote byte
	for p.i++; p.i < len(p.doc); p.i++ {
		c := p.doc[p.i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			p.i++
			return nil
		case c == '<' || c == '[':
			return p.errorf("<!DOCTYPE> with an internal subset")
		}
	}
	return p.errorf("unterminated <!DOCTYPE>")
}

// comment skips `<!-- ... -->`; XML forbids "--" inside one.
func (p *xmlReader) comment() error {
	end := strings.Index(p.doc[p.i+4:], "--")
	if end < 0 {
		return p.errorf("unterminated comment")
	}
	p.i += 4 + end + 2
	if !p.eat('>') {
		return p.errorf("'--' inside a comment")
	}
	return nil
}

// parseTimestamp reads the "T+<seconds>s" virtual timestamp RenderXML
// writes. A real driver writes a calendar date there; like the other
// cosmetic fields, anything unreadable is 0.
func parseTimestamp(s string) time.Duration {
	s, ok := strings.CutPrefix(strings.TrimSpace(s), "T+")
	if !ok {
		return 0
	}
	s, ok = strings.CutSuffix(s, "s")
	if !ok {
		return 0
	}
	secs, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(secs) || math.Abs(secs) > math.MaxInt64/float64(time.Second) {
		return 0
	}
	return time.Duration(math.Round(secs * float64(time.Second)))
}

// parseCount parses a bare integer field (<pid>, <attached_gpus>); an empty
// field counts as 0.
func parseCount(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.Atoi(strings.TrimSpace(s))
}

// parseMinor parses a <gpu> block's <minor_number>, returning a *FieldError
// (located by the block's position in the document) when the tag is absent,
// empty, not a number or negative.
func parseMinor(position int, s string, present bool) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if !present || err != nil || v < 0 {
		return 0, &FieldError{GPU: position, Field: "minor_number", Raw: s}
	}
	return v, nil
}

func parseFan(s string) int {
	if strings.TrimSpace(s) == "N/A" {
		return -1
	}
	return parsePct(s)
}

func parsePct(s string) int { return parseUnit(s, "%") }

// parseMiBStrict parses a "<n> MiB" memory reading, returning a *FieldError
// for absent, "N/A" or otherwise malformed values.
func parseMiBStrict(minor int, field, s string) (int64, error) {
	trimmed := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "MiB"))
	if trimmed == "" || strings.EqualFold(trimmed, "N/A") {
		return 0, &FieldError{GPU: minor, Field: field, Raw: s}
	}
	v, err := strconv.ParseInt(trimmed, 10, 64)
	if err != nil || v < 0 {
		return 0, &FieldError{GPU: minor, Field: field, Raw: s}
	}
	return v, nil
}

// parseUnit extracts the integer from strings like "11441 MiB", "95 %",
// "60 W". Unknown or malformed fields parse as 0, matching the forgiving
// behaviour of the paper's soup-based extraction.
func parseUnit(s, unit string) int {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), unit))
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return v
}
