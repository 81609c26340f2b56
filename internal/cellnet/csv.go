package cellnet

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
)

// csvHeader is the OpenCelliD export column layout.
var csvHeader = []string{
	"radio", "mcc", "net", "area", "cell", "unit",
	"lon", "lat", "range", "samples", "changeable",
	"created", "updated", "averageSignal",
}

// WriteCSV streams the dataset in OpenCelliD CSV format. Years are encoded
// as Unix timestamps at year boundaries, matching the upstream export's
// integer-seconds columns.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("cellnet: writing CSV header: %w", err)
	}
	rec := make([]string, len(csvHeader))
	for i := range d.T {
		t := &d.T[i]
		rec[0] = t.Radio.String()
		rec[1] = strconv.Itoa(int(t.MCC))
		rec[2] = strconv.Itoa(int(t.MNC))
		rec[3] = strconv.Itoa(int(t.Area))
		rec[4] = strconv.Itoa(int(t.Cell))
		rec[5] = "0"
		rec[6] = strconv.FormatFloat(t.Lon, 'f', 6, 64)
		rec[7] = strconv.FormatFloat(t.Lat, 'f', 6, 64)
		rec[8] = "1000"
		rec[9] = strconv.Itoa(int(t.Samples))
		rec[10] = "1"
		rec[11] = strconv.FormatInt(yearToUnix(t.Created), 10)
		rec[12] = strconv.FormatInt(yearToUnix(t.Updated), 10)
		rec[13] = "0"
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("cellnet: writing CSV record %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("cellnet: flushing CSV: %w", err)
	}
	return nil
}

// ReadCSV parses an OpenCelliD-format CSV into a Dataset, projecting
// positions with the world's projection and attributing states through
// the world's zone raster. Unknown radio values and malformed rows
// produce errors identifying the offending line.
func ReadCSV(r io.Reader, w *conus.World) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("cellnet: reading CSV header: %w", err)
	}
	if header[0] != "radio" || header[6] != "lon" {
		return nil, fmt.Errorf("cellnet: unexpected CSV header %v", header)
	}
	var ts []Transceiver
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("cellnet: reading CSV line %d: %w", line, err)
		}
		t, err := parseRecord(rec, w)
		if err != nil {
			return nil, fmt.Errorf("cellnet: line %d: %w", line, err)
		}
		ts = append(ts, t)
	}
	return NewDataset(w, ts), nil
}

func parseRecord(rec []string, w *conus.World) (Transceiver, error) {
	var t Transceiver
	radio, err := ParseRadio(rec[0])
	if err != nil {
		return t, err
	}
	mcc, err := strconv.Atoi(rec[1])
	if err != nil {
		return t, fmt.Errorf("bad mcc %q: %w", rec[1], err)
	}
	mnc, err := strconv.Atoi(rec[2])
	if err != nil {
		return t, fmt.Errorf("bad net %q: %w", rec[2], err)
	}
	area, err := strconv.Atoi(rec[3])
	if err != nil {
		return t, fmt.Errorf("bad area %q: %w", rec[3], err)
	}
	cell, err := strconv.ParseUint(rec[4], 10, 32)
	if err != nil {
		return t, fmt.Errorf("bad cell %q: %w", rec[4], err)
	}
	lon, err := strconv.ParseFloat(rec[6], 64)
	if err != nil {
		return t, fmt.Errorf("bad lon %q: %w", rec[6], err)
	}
	lat, err := strconv.ParseFloat(rec[7], 64)
	if err != nil {
		return t, fmt.Errorf("bad lat %q: %w", rec[7], err)
	}
	samples, err := strconv.Atoi(rec[9])
	if err != nil {
		return t, fmt.Errorf("bad samples %q: %w", rec[9], err)
	}
	created, err := strconv.ParseInt(rec[11], 10, 64)
	if err != nil {
		return t, fmt.Errorf("bad created %q: %w", rec[11], err)
	}
	updated, err := strconv.ParseInt(rec[12], 10, 64)
	if err != nil {
		return t, fmt.Errorf("bad updated %q: %w", rec[12], err)
	}

	t.Radio = radio
	t.MCC = uint16(mcc)
	t.MNC = uint16(mnc)
	t.Area = uint16(area)
	t.Cell = uint32(cell)
	t.Lon = lon
	t.Lat = lat
	t.Samples = uint16(min(samples, 65535))
	t.Created = unixToYear(created)
	t.Updated = unixToYear(updated)
	t.XY = w.ToXY(geom.Point{X: lon, Y: lat})
	t.StateIdx = int16(w.StateAt(t.XY))
	return t, nil
}

// yearToUnix converts a calendar year to the Unix timestamp of its Jan 1
// (UTC), without the time package so the codec stays allocation-free.
func yearToUnix(year uint16) int64 {
	days := int64(0)
	for y := 1970; y < int(year); y++ {
		days += 365
		if isLeap(y) {
			days++
		}
	}
	return days * 86400
}

func unixToYear(ts int64) uint16 {
	days := ts / 86400
	y := 1970
	for {
		l := int64(365)
		if isLeap(y) {
			l++
		}
		if days < l {
			return uint16(y)
		}
		days -= l
		y++
	}
}

func isLeap(y int) bool {
	return (y%4 == 0 && y%100 != 0) || y%400 == 0
}
