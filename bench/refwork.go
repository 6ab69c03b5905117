package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"sort"
	"strconv"
	"time"
)

// The reference work is a fixed computation made of the standard library
// alone: no code of the repository under test runs in it, so no change to
// the repository can make it faster or slower. It does what the serving
// path does between two system calls — encode and decode small JSON records
// and an XML device report, fill a map, sort, allocate short-lived objects —
// and so it slows down and speeds up with the sandbox the way the workloads
// do. A run times it between rounds; the ratio of that time to refNominal
// is how fast the machine was while the run measured. See README,
// "Speed correction".

// refNominal and refMemNominal are what refWork and refMem took on the
// 2-vCPU reference box when its neighbours were quiet: the speed every gated
// figure is quoted at.
const (
	refNominal    = 25 * time.Millisecond
	refMemNominal = 25 * time.Millisecond
)

type refRecord struct {
	Seq     uint64            `json:"seq"`
	Type    string            `json:"type"`
	Job     int               `json:"job"`
	Tool    string            `json:"tool"`
	Params  map[string]string `json:"params,omitempty"`
	Devices []int             `json:"devices,omitempty"`
	At      time.Duration     `json:"at"`
}

type refReport struct {
	XMLName xml.Name `xml:"report"`
	GPUs    []refGPU `xml:"gpu"`
}

type refGPU struct {
	Minor int      `xml:"minor,attr"`
	Name  string   `xml:"name"`
	Used  int      `xml:"memory>used"`
	Total int      `xml:"memory>total"`
	Procs []string `xml:"processes>process"`
}

var refSink int

// refWork runs the reference work once and returns how long it took.
func refWork() time.Duration {
	t0 := time.Now()
	const records = 3000
	index := make(map[string]*refRecord, records)
	var keys []string
	var buf bytes.Buffer
	for i := 0; i < records; i++ {
		rec := refRecord{
			Seq: uint64(i) * 2654435761, Type: "submit", Job: i, Tool: "tool" + strconv.Itoa(i%7),
			Params:  map[string]string{"scale": strconv.Itoa(i), "threads": "4"},
			Devices: []int{i % 2, (i + 1) % 2}, At: time.Duration(i) * time.Millisecond,
		}
		data, err := json.Marshal(&rec)
		if err != nil {
			panic(err) // a fixed value of a marshalable type
		}
		buf.Write(data)
		back := new(refRecord)
		if err := json.Unmarshal(data, back); err != nil {
			panic(err)
		}
		key := back.Tool + "/" + strconv.FormatUint(back.Seq, 16)
		index[key] = back
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, k := range keys {
		refSink += index[k].Job
	}
	report := refReport{}
	for g := 0; g < 4; g++ {
		report.GPUs = append(report.GPUs, refGPU{Minor: g, Name: "Tesla", Used: g * 100, Total: 16000, Procs: []string{"racon", "bonito"}})
	}
	for i := 0; i < 200; i++ {
		data, err := xml.Marshal(&report)
		if err != nil {
			panic(err)
		}
		var back refReport
		if err := xml.Unmarshal(data, &back); err != nil {
			panic(err)
		}
		refSink += len(back.GPUs) + buf.Len()
	}
	return time.Since(t0)
}

type refNode struct {
	next *refNode
	key  uint64
	pad  [6]uint64
}

// refMem is the reference work's memory-bound half: it builds a pointer-rich
// heap larger than the processor's caches, chases it in a scattered order and
// lets the collector mark it — what a server that retains state per job makes
// the machine do.
func refMem() time.Duration {
	t0 := time.Now()
	const nodes = 300_000 // 64 bytes each: ~19MB of nodes, 2.4MB of pointers
	all := make([]*refNode, nodes)
	x := uint64(88172645463325252)
	for i := range all {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		all[i] = &refNode{key: x}
	}
	for i := range all {
		all[i].next = all[all[i].key%nodes]
	}
	sum := uint64(0)
	for start := 0; start < 64; start++ {
		n := all[start*4099%nodes]
		for hop := 0; hop < 4000; hop++ {
			sum += n.key
			n = n.next
		}
	}
	refSink += int(sum & 1)
	return time.Since(t0)
}
