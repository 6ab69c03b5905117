package smi

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gyan/internal/gpu"
)

// codecReports are the shapes the golden and fuzz tests render: the idle and
// busy paper testbed, a device with eight processes, boards that report a
// fan speed, and names that need every escape the writer knows.
func codecReports(t testing.TB) map[string]Report {
	t.Helper()
	busy, at := busyTestbed(t)
	crowded := Snapshot(gpu.NewPaperTestbed(nil), 90*time.Second+time.Millisecond)
	for pid := 0; pid < 8; pid++ {
		crowded.GPUs[1].Processes = append(crowded.GPUs[1].Processes,
			ProcessInfo{PID: 4000 + pid, Name: "/usr/bin/bonito", Type: "C", UsedMemoryMiB: int64(100 * pid)})
	}
	fans := Snapshot(gpu.NewPaperTestbed(nil), 0)
	fans.GPUs[0].FanPercent, fans.GPUs[1].FanPercent = 0, 47
	hostile := Snapshot(gpu.NewPaperTestbed(nil), time.Second)
	hostile.DriverVersion = `<&>"'`
	hostile.GPUs[0].BusID = "a\"b'c<d>&e\tf\ng\rh"
	hostile.GPUs[0].ProductName = "Tesla\xffK80\x00 \ufffe"
	hostile.GPUs[0].Processes = []ProcessInfo{
		{PID: 7, Name: "<&>\"'\t\n\r", Type: "C&G", UsedMemoryMiB: 1},
		{PID: 8, Name: "naïve 工具 ]]> &amp;", Type: "C"},
	}
	return map[string]Report{
		"idle":    Snapshot(gpu.NewPaperTestbed(nil), 0),
		"busy":    Snapshot(busy, at),
		"crowded": crowded,
		"fans":    fans,
		"hostile": hostile,
		"empty":   {},
	}
}

// The writer emits, byte for byte, what xml.MarshalIndent emitted.
func TestRenderXMLMatchesMarshalIndent(t *testing.T) {
	for name, rep := range codecReports(t) {
		want, err := oracleRenderXML(rep)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := RenderXML(rep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: RenderXML differs from MarshalIndent\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// The reader and xml.Unmarshal agree on every rendered document.
func TestParseXMLMatchesUnmarshal(t *testing.T) {
	for name, rep := range codecReports(t) {
		doc, _ := RenderXML(rep)
		got, err := ParseXML(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := oracleParseXML(doc)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// What the reader refuses: documents encoding/xml lets through or reads
// something into, and plain malformed ones. wrap puts a well-formed root
// around a fragment.
func TestParseXMLRejects(t *testing.T) {
	const gpu0 = `<gpu id="a"><minor_number>0</minor_number><fb_memory_usage><total>1 MiB</total><used>1 MiB</used></fb_memory_usage></gpu>`
	wrap := func(s string) string { return "<nvidia_smi_log>" + s + "</nvidia_smi_log>" }
	if _, err := ParseXML(wrap(gpu0)); err != nil {
		t.Fatalf("the healthy base document does not parse: %v", err)
	}
	for name, doc := range map[string]string{
		"empty":                "",
		"no root":              "<!-- only a comment -->",
		"wrong root":           "<smi_log></smi_log>",
		"text before root":     "junk" + wrap(gpu0),
		"text after root":      wrap(gpu0) + "junk",
		"second root":          wrap(gpu0) + wrap(gpu0),
		"unclosed root":        "<nvidia_smi_log>" + gpu0,
		"misnamed close":       "<nvidia_smi_log><gpu></gpus></nvidia_smi_log>",
		"crossed close":        wrap("<a><b></a></b>"),
		"stray close":          wrap(gpu0) + "</gpu>",
		"unterminated tag":     wrap(gpu0) + "<",
		"unterminated start":   "<nvidia_smi_log",
		"unterminated comment": wrap("<!-- "),
		"dashes in comment":    wrap("<!-- a -- b -->"),
		"cdata":                wrap("<driver_version><![CDATA[455]]></driver_version>"),
		"processing instr":     wrap("<?php ?>"),
		"late declaration":     "\n" + `<?xml version="1.0"?>` + wrap(gpu0),
		"xml 1.1":              `<?xml version="1.1"?>` + wrap(gpu0),
		"latin1":               `<?xml version="1.0" encoding="ISO-8859-1"?>` + wrap(gpu0),
		"doctype subset":       `<!DOCTYPE nvidia_smi_log [<!ENTITY x "y">]>` + wrap(gpu0),
		"late doctype":         wrap(`<!DOCTYPE nvidia_smi_log>`),
		"namespace prefix":     wrap("<x:gpu></x:gpu>"),
		"unquoted attribute":   wrap("<gpu id=a></gpu>"),
		"bare attribute":       wrap("<gpu id></gpu>"),
		"two ids":              wrap(`<gpu id="a" id="b"></gpu>`),
		"lt in attribute":      wrap(`<gpu id="<"></gpu>`),
		"unknown entity":       wrap("<driver_version>&nbsp;</driver_version>"),
		"bare ampersand":       wrap("<driver_version>a & b</driver_version>"),
		"nul reference":        wrap("<driver_version>&#0;</driver_version>"),
		"surrogate reference":  wrap("<driver_version>&#xD800;</driver_version>"),
		"control character":    wrap("<driver_version>\x01</driver_version>"),
		"invalid utf-8":        wrap("<unknown>\xff</unknown>"),
		"cdata end in text":    wrap("<unknown>]]></unknown>"),
		"element in a field":   wrap(`<gpu id="a"><minor_number>0<b/></minor_number></gpu>`),
		"pid not a number":     wrap(`<gpu><processes><process_info><pid>x</pid></process_info></processes></gpu>`),
		"attached not a count": wrap("<attached_gpus>two</attached_gpus>"),
	} {
		if rep, err := ParseXML(doc); err == nil {
			t.Errorf("%s: ParseXML accepted %q as %+v", name, doc, rep)
		}
	}
}

// What the reader must read through: the parts of XML nvidia-smi does write
// that the renderer here does not.
func TestParseXMLReadsThrough(t *testing.T) {
	doc := "<?xml version='1.0' encoding=\"utf-8\" standalone=\"yes\" ?>\r\n" +
		"<!DOCTYPE nvidia_smi_log SYSTEM \"nvsmi_device_v11.dtd>\">\r\n" +
		"<!-- a comment -->" +
		"<nvidia_smi_log xmlns=\"x\">\r\n" +
		"<driver_version>4<!-- split -->55&#46;&#x34;5&amp;&lt;&gt;&apos;&quot;\r\n.</driver_version>" +
		"<gpu id='00:05&#58;00'>" +
		"<bar1_memory_usage><total>9 MiB</total><used>9 MiB</used></bar1_memory_usage>" +
		"<fb_memory_usage><used>63 MiB</used><total>11441 MiB</total></fb_memory_usage>" +
		"<minor_number> 3 </minor_number>" +
		"<processes/><fan_speed>N/A</fan_speed>" +
		"</gpu>\r\n" +
		"</nvidia_smi_log >\r\n<!-- trailing -->\n"
	got, err := ParseXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := Report{
		DriverVersion: "455.45&<>'\"\n.",
		GPUs: []GPUInfo{{
			MinorNumber: 3, BusID: "00:05:00", FanPercent: -1,
			MemoryTotalMiB: 11441, MemoryUsedMiB: 63,
		}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("\n got %+v\nwant %+v", got, want)
	}
	if oracle, err := oracleParseXML(doc); err != nil || !reflect.DeepEqual(oracle, want) {
		t.Errorf("oracle disagrees: %+v, %v", oracle, err)
	}
}

// A document shaped like a real driver's `-q -x` output — DOCTYPE line,
// calendar timestamp, <pci>, <clocks>, <ecc_errors> and the other subtrees
// Pseudocode 1 never looks at, a <used> under <bar1_memory_usage> that is not
// the framebuffer's — distills to the right survey.
func TestUsageFromRealShapedDocument(t *testing.T) {
	raw, err := os.ReadFile("testdata/nvidia-smi-real.xml")
	if err != nil {
		t.Fatal(err)
	}
	got, err := UsageFromXML(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := Usage{
		AllGPUs:         []int{0, 1},
		AvailableGPUs:   []int{0},
		ProcsByGPU:      map[int][]int{0: {}, 1: {23301, 23377}},
		UsedMemMiBByGPU: map[int]int64{0: 63, 1: 2734},
		UtilPctByGPU:    map[int]int{0: 0, 1: 95},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("\n got %+v\nwant %+v", got, want)
	}
	rep, err := ParseXML(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if oracle, err := oracleParseXML(string(raw)); err != nil || !reflect.DeepEqual(oracle, rep) {
		t.Errorf("oracle disagrees: %v\n got %+v\nwant %+v", err, rep, oracle)
	}
	if rep.Timestamp != 0 || rep.GPUs[1].Processes[1].Name != "/usr/bin/racon_gpu" || rep.GPUs[0].FanPercent != -1 {
		t.Errorf("report fields misread: %+v", rep)
	}
}

// One survey of the two-GPU paper testbed stays within an allocation budget
// (the reflection codec took 587).
func TestSurveyAllocationBudget(t *testing.T) {
	c, at := busyTestbed(t)
	allocs := testing.AllocsPerRun(100, func() {
		doc, err := Query(c, at)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UsageFromXML(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Query+UsageFromXML made %.0f allocations, budget 40", allocs)
	}
}

// FuzzParseXML holds the reader to the encoding/xml oracle: it accepts
// nothing the oracle refuses, reads every document it accepts into the same
// Report, and never panics.
func FuzzParseXML(f *testing.F) {
	for _, rep := range codecReports(f) {
		doc, _ := RenderXML(rep)
		f.Add(doc)
	}
	for _, fields := range [][2]string{
		{"<total>11441 MiB</total>", "<used>2734 MiB</used>"},
		{"<total>11441 MiB</total>", "<used>N/A</used>"},
		{"<total>N/A</total>", "<used>63 MiB</used>"},
		{"", "<used>63 MiB</used>"},
		{"<total>11441 MiB</total>", "<used>-5 MiB</used>"},
	} {
		f.Add(memDoc(fields[0], fields[1]))
	}
	f.Add(strings.Replace(memDoc("<total>1 MiB</total>", "<used>1 MiB</used>"),
		"<minor_number>1</minor_number>", "", 1))
	if raw, err := os.ReadFile("testdata/nvidia-smi-real.xml"); err == nil {
		f.Add(string(raw))
	}
	f.Add("not xml at all <<<")
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ParseXML(doc)
		if err != nil {
			return
		}
		want, err := oracleParseXML(doc)
		if err != nil {
			t.Fatalf("the reader accepted what encoding/xml refuses (%v):\n%q", err, doc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the reader and encoding/xml disagree on %q:\n got %+v\nwant %+v", doc, got, want)
		}
	})
}
