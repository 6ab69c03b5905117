package smi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// memDoc builds a minimal two-GPU nvidia-smi document with the given
// fb_memory_usage fields on GPU 1 (GPU 0 stays healthy).
func memDoc(total, used string) string {
	return fmt.Sprintf(`<?xml version="1.0" ?>
<nvidia_smi_log>
  <driver_version>455.45.01</driver_version>
  <cuda_version>11.1</cuda_version>
  <attached_gpus>2</attached_gpus>
  <gpu id="00000000:05:00.0">
    <minor_number>0</minor_number>
    <fb_memory_usage><total>11441 MiB</total><used>63 MiB</used><free>11378 MiB</free></fb_memory_usage>
    <processes></processes>
  </gpu>
  <gpu id="00000000:06:00.0">
    <minor_number>1</minor_number>
    <fb_memory_usage>%s%s</fb_memory_usage>
    <processes></processes>
  </gpu>
</nvidia_smi_log>
`, total, used)
}

// Regression: a missing or "N/A" memory reading used to parse as 0 MiB,
// which made the broken device the by-memory policy's favorite. It must be a
// typed error instead.
func TestParseXMLRejectsNAMemoryFields(t *testing.T) {
	cases := []struct {
		name        string
		total, used string
		wantField   string
	}{
		{"na_used", "<total>11441 MiB</total>", "<used>N/A</used>", "fb_memory_usage/used"},
		{"na_total", "<total>N/A</total>", "<used>63 MiB</used>", "fb_memory_usage/total"},
		{"missing_used", "<total>11441 MiB</total>", "", "fb_memory_usage/used"},
		{"missing_total", "", "<used>63 MiB</used>", "fb_memory_usage/total"},
		{"garbage_used", "<total>11441 MiB</total>", "<used>?? MiB</used>", "fb_memory_usage/used"},
		{"negative_used", "<total>11441 MiB</total>", "<used>-5 MiB</used>", "fb_memory_usage/used"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseXML(memDoc(c.total, c.used))
			if err == nil {
				t.Fatal("ParseXML accepted an unreadable memory field")
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FieldError", err)
			}
			if fe.GPU != 1 || fe.Field != c.wantField {
				t.Errorf("FieldError = %+v, want GPU 1 field %s", fe, c.wantField)
			}
			// The same document must also fail the Usage distillation,
			// so the allocator never sees a zero-valued survey.
			if _, uerr := UsageFromXML(memDoc(c.total, c.used)); uerr == nil {
				t.Error("UsageFromXML accepted the unreadable memory field")
			}
		})
	}
}

// Regression: a <gpu> block without a readable <minor_number> used to decode
// as minor 0, overwriting the real GPU 0's entries in the Usage maps and
// listing 0 twice in AllGPUs — a broken device hiding a healthy one.
func TestParseXMLRejectsUnreadableMinorNumber(t *testing.T) {
	healthy := memDoc("<total>11441 MiB</total>", "<used>63 MiB</used>")
	const tag = "<minor_number>1</minor_number>"
	for name, replacement := range map[string]string{
		"missing":     "",
		"empty":       "<minor_number></minor_number>",
		"self_closed": "<minor_number/>",
		"blank":       "<minor_number>  </minor_number>",
		"na":          "<minor_number>N/A</minor_number>",
		"negative":    "<minor_number>-1</minor_number>",
	} {
		t.Run(name, func(t *testing.T) {
			doc := strings.Replace(healthy, tag, replacement, 1)
			_, err := ParseXML(doc)
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FieldError", err)
			}
			// The block has no minor to name it by; GPU is its position.
			if fe.GPU != 1 || fe.Field != "minor_number" {
				t.Errorf("FieldError = %+v, want GPU 1 field minor_number", fe)
			}
			if _, uerr := UsageFromXML(doc); uerr == nil {
				t.Error("UsageFromXML accepted the unreadable minor number")
			}
		})
	}
	t.Run("duplicate", func(t *testing.T) {
		doc := strings.Replace(healthy, tag, "<minor_number>0</minor_number>", 1)
		if rep, err := ParseXML(doc); err == nil {
			t.Errorf("two <gpu> blocks with minor 0 parsed as %+v", rep)
		}
	})
}

func TestParseXMLHealthyMemoryFieldsStillParse(t *testing.T) {
	rep, err := ParseXML(memDoc("<total>11441 MiB</total>", "<used>2734 MiB</used>"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUs[1].MemoryUsedMiB != 2734 || rep.GPUs[1].MemoryTotalMiB != 11441 {
		t.Errorf("GPU 1 memory = %d/%d", rep.GPUs[1].MemoryUsedMiB, rep.GPUs[1].MemoryTotalMiB)
	}
}

func TestUsageWithoutHidesDevices(t *testing.T) {
	u := Usage{
		AllGPUs:         []int{0, 1, 2},
		AvailableGPUs:   []int{0, 2},
		ProcsByGPU:      map[int][]int{0: {}, 1: {9}, 2: {}},
		UsedMemMiBByGPU: map[int]int64{0: 10, 1: 500, 2: 20},
		UtilPctByGPU:    map[int]int{0: 1, 1: 80, 2: 3},
	}
	got := u.Without([]int{2})
	if fmt.Sprint(got.AllGPUs) != "[0 1]" || fmt.Sprint(got.AvailableGPUs) != "[0]" {
		t.Errorf("Without(2): AllGPUs=%v AvailableGPUs=%v", got.AllGPUs, got.AvailableGPUs)
	}
	if _, ok := got.UsedMemMiBByGPU[2]; ok {
		t.Error("device 2 memory reading survived the filter")
	}
	// Empty filter returns the survey unchanged.
	same := u.Without(nil)
	if fmt.Sprint(same.AllGPUs) != fmt.Sprint(u.AllGPUs) {
		t.Error("Without(nil) altered the survey")
	}
}
