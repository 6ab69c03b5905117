package smi

import (
	"encoding/xml"
	"fmt"
)

// The reflection codec the hand-written one in xml.go replaced, kept as the
// differential oracle: oracleRenderXML is the previous RenderXML, and
// oracleParseXML the previous ParseXML — xml.Unmarshal into mirror structs —
// carrying the same field rules as the reader (timestamp read back,
// <minor_number> required, duplicate minors refused). The one change to the
// structs is that MinorNumber is a *string, so an absent tag can be told
// from a zero.

type xmlLog struct {
	XMLName       xml.Name `xml:"nvidia_smi_log"`
	Timestamp     string   `xml:"timestamp"`
	DriverVersion string   `xml:"driver_version"`
	CUDAVersion   string   `xml:"cuda_version"`
	AttachedGPUs  int      `xml:"attached_gpus"`
	GPUs          []xmlGPU `xml:"gpu"`
}

type xmlGPU struct {
	ID          string       `xml:"id,attr"`
	ProductName string       `xml:"product_name"`
	UUID        string       `xml:"uuid"`
	MinorNumber *string      `xml:"minor_number"` // nil when the tag is absent
	FanSpeed    string       `xml:"fan_speed"`
	PerfState   string       `xml:"performance_state"`
	FBMemory    xmlMemUsage  `xml:"fb_memory_usage"`
	Utilization xmlUtil      `xml:"utilization"`
	Temperature xmlTemp      `xml:"temperature"`
	Power       xmlPower     `xml:"power_readings"`
	Processes   xmlProcesses `xml:"processes"`
}

type xmlMemUsage struct {
	Total string `xml:"total"`
	Used  string `xml:"used"`
	Free  string `xml:"free"`
}

type xmlUtil struct {
	GPUUtil    string `xml:"gpu_util"`
	MemoryUtil string `xml:"memory_util"`
}

type xmlTemp struct {
	GPUTemp string `xml:"gpu_temp"`
}

type xmlPower struct {
	PowerDraw  string `xml:"power_draw"`
	PowerLimit string `xml:"power_limit"`
}

type xmlProcesses struct {
	Infos []xmlProcessInfo `xml:"process_info"`
}

type xmlProcessInfo struct {
	PID        int    `xml:"pid"`
	Type       string `xml:"type"`
	Name       string `xml:"process_name"`
	UsedMemory string `xml:"used_memory"`
}

func oracleRenderXML(r Report) (string, error) {
	doc := xmlLog{
		Timestamp:     fmt.Sprintf("T+%.3fs", r.Timestamp.Seconds()),
		DriverVersion: r.DriverVersion,
		CUDAVersion:   r.CUDAVersion,
		AttachedGPUs:  len(r.GPUs),
	}
	for _, g := range r.GPUs {
		fan := "N/A"
		if g.FanPercent >= 0 {
			fan = fmt.Sprintf("%d %%", g.FanPercent)
		}
		minor := fmt.Sprint(g.MinorNumber)
		xg := xmlGPU{
			ID:          g.BusID,
			ProductName: g.ProductName,
			UUID:        g.UUID,
			MinorNumber: &minor,
			FanSpeed:    fan,
			PerfState:   g.PerfState,
			FBMemory: xmlMemUsage{
				Total: fmt.Sprintf("%d MiB", g.MemoryTotalMiB),
				Used:  fmt.Sprintf("%d MiB", g.MemoryUsedMiB),
				Free:  fmt.Sprintf("%d MiB", g.MemoryTotalMiB-g.MemoryUsedMiB),
			},
			Utilization: xmlUtil{
				GPUUtil:    fmt.Sprintf("%d %%", g.UtilizationPct),
				MemoryUtil: fmt.Sprintf("%d %%", int(g.MemoryUsedMiB*100/max(g.MemoryTotalMiB, 1))),
			},
			Temperature: xmlTemp{GPUTemp: fmt.Sprintf("%d C", g.TemperatureC)},
			Power: xmlPower{
				PowerDraw:  fmt.Sprintf("%d W", g.PowerDrawW),
				PowerLimit: fmt.Sprintf("%d W", g.PowerLimitW),
			},
		}
		for _, p := range g.Processes {
			xg.Processes.Infos = append(xg.Processes.Infos, xmlProcessInfo{
				PID:        p.PID,
				Type:       p.Type,
				Name:       p.Name,
				UsedMemory: fmt.Sprintf("%d MiB", p.UsedMemoryMiB),
			})
		}
		doc.GPUs = append(doc.GPUs, xg)
	}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("smi: render: %w", err)
	}
	return xml.Header + string(out) + "\n", nil
}

func oracleParseXML(doc string) (Report, error) {
	var x xmlLog
	if err := xml.Unmarshal([]byte(doc), &x); err != nil {
		return Report{}, fmt.Errorf("smi: parse: %w", err)
	}
	r := Report{
		Timestamp:     parseTimestamp(x.Timestamp),
		DriverVersion: x.DriverVersion,
		CUDAVersion:   x.CUDAVersion,
	}
	for i, g := range x.GPUs {
		var minorRaw string
		if g.MinorNumber != nil {
			minorRaw = *g.MinorNumber
		}
		minor, err := parseMinor(i, minorRaw, g.MinorNumber != nil)
		if err != nil {
			return Report{}, err
		}
		for _, seen := range r.GPUs {
			if seen.MinorNumber == minor {
				return Report{}, fmt.Errorf("smi: parse: two <gpu> blocks with minor_number %d", minor)
			}
		}
		memTotal, err := parseMiBStrict(minor, "fb_memory_usage/total", g.FBMemory.Total)
		if err != nil {
			return Report{}, err
		}
		memUsed, err := parseMiBStrict(minor, "fb_memory_usage/used", g.FBMemory.Used)
		if err != nil {
			return Report{}, err
		}
		gi := GPUInfo{
			MinorNumber:    minor,
			ProductName:    g.ProductName,
			UUID:           g.UUID,
			BusID:          g.ID,
			FanPercent:     parseFan(g.FanSpeed),
			PerfState:      g.PerfState,
			MemoryTotalMiB: memTotal,
			MemoryUsedMiB:  memUsed,
			UtilizationPct: parsePct(g.Utilization.GPUUtil),
			TemperatureC:   parseUnit(g.Temperature.GPUTemp, "C"),
			PowerDrawW:     parseUnit(g.Power.PowerDraw, "W"),
			PowerLimitW:    parseUnit(g.Power.PowerLimit, "W"),
		}
		for _, p := range g.Processes.Infos {
			gi.Processes = append(gi.Processes, ProcessInfo{
				PID:           p.PID,
				Type:          p.Type,
				Name:          p.Name,
				UsedMemoryMiB: int64(parseUnit(p.UsedMemory, "MiB")),
			})
		}
		r.GPUs = append(r.GPUs, gi)
	}
	return r, nil
}
