package raster

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"strings"
)

// Palette maps class values to colors for PNG export.
type Palette map[uint8]color.RGBA

// WritePNG renders the class grid to w as a PNG using the palette; classes
// without a palette entry render black. Row 0 of the grid (south) is drawn
// at the bottom of the image.
func (c *ClassGrid) WritePNG(w io.Writer, pal Palette) error {
	img := image.NewRGBA(image.Rect(0, 0, c.NX, c.NY))
	for cy := 0; cy < c.NY; cy++ {
		py := c.NY - 1 - cy
		for cx := 0; cx < c.NX; cx++ {
			col, ok := pal[c.Data[cy*c.NX+cx]]
			if !ok {
				col = color.RGBA{A: 255}
			}
			img.SetRGBA(cx, py, col)
		}
	}
	if err := png.Encode(w, img); err != nil {
		return fmt.Errorf("raster: encoding PNG: %w", err)
	}
	return nil
}

// ASCII renders the class grid as text, one rune per cell via the glyphs
// map (missing classes render '.'), north at the top. Intended for quick
// map "figures" in terminals and golden tests; cap columns with maxWidth
// (0 = no cap; the grid is downsampled by striding).
func (c *ClassGrid) ASCII(glyphs map[uint8]rune, maxWidth int) string {
	stride := 1
	if maxWidth > 0 && c.NX > maxWidth {
		stride = (c.NX + maxWidth - 1) / maxWidth
	}
	var b strings.Builder
	for cy := c.NY - 1; cy >= 0; cy -= stride {
		for cx := 0; cx < c.NX; cx += stride {
			g, ok := glyphs[c.Data[cy*c.NX+cx]]
			if !ok {
				g = '.'
			}
			b.WriteRune(g)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
