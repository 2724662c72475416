//! Image planes: the payloads flowing through the applications' streams.
//!
//! The paper's applications process the Y, U and V *color fields* of each
//! frame as independent task-parallel subgraphs, so the streams carry
//! single [`Plane`]s (not whole frames). A plane's pixel storage is a
//! [`RegionBuf`], which lets the copies of a sliced group fill disjoint row
//! bands of one shared output plane concurrently — the shared-memory write
//! pattern the paper's data parallelism relies on.

use hinch::component::RunCtx;
use hinch::meter::AccessKind;
use hinch::sharedbuf::{ReadLease, RegionBuf, WriteLease};
use std::ops::Range;

/// One 8-bit image plane (a color field of a frame).
pub struct Plane {
    w: usize,
    h: usize,
    data: RegionBuf<u8>,
}

impl Plane {
    /// Zero-filled plane.
    pub fn new(name: &str, w: usize, h: usize) -> Self {
        Self {
            w,
            h,
            data: RegionBuf::new(name, w * h),
        }
    }

    /// Plane from raster-order pixels (len must be `w*h`).
    pub fn from_pixels(name: &str, w: usize, h: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), w * h, "pixel count must match dimensions");
        Self {
            w,
            h,
            data: RegionBuf::from_vec(name, pixels),
        }
    }

    pub fn width(&self) -> usize {
        self.w
    }

    pub fn height(&self) -> usize {
        self.h
    }

    /// Lease rows `[rows.start, rows.end)` for writing.
    pub fn write_rows(&self, rows: Range<usize>) -> WriteLease<'_, u8> {
        self.data
            .lease_write(rows.start * self.w..rows.end * self.w)
    }

    /// Lease rows `[rows.start, rows.end)` for reading.
    pub fn read_rows(&self, rows: Range<usize>) -> ReadLease<'_, u8> {
        self.data.lease_read(rows.start * self.w..rows.end * self.w)
    }

    /// Lease the full plane for reading.
    pub fn read_all(&self) -> ReadLease<'_, u8> {
        self.data.lease_read_all()
    }

    /// Copy the pixels out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.snapshot()
    }

    /// Report a read sweep over `rows` to the platform.
    pub fn touch_read(&self, ctx: &mut RunCtx<'_>, rows: Range<usize>) {
        ctx.touch(
            self.data
                .access(rows.start * self.w..rows.end * self.w, AccessKind::Read),
        );
    }

    /// Report a write sweep over `rows` to the platform.
    pub fn touch_write(&self, ctx: &mut RunCtx<'_>, rows: Range<usize>) {
        ctx.touch(
            self.data
                .access(rows.start * self.w..rows.end * self.w, AccessKind::Write),
        );
    }
}

impl std::fmt::Debug for Plane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Plane({}x{})", self.w, self.h)
    }
}

/// A plane of dequantized DCT coefficients (the hand-over point between
/// the paper's "JPEG decode" and "IDCT" components).
///
/// Coefficients are stored block-major: block (bx, by) occupies the 64
/// `i16`s starting at `(by * blocks_w + bx) * 64`, in natural (row-major
/// within the block) order, already dequantized.
pub struct CoefPlane {
    w: usize,
    h: usize,
    blocks_w: usize,
    blocks_h: usize,
    data: RegionBuf<i16>,
}

impl CoefPlane {
    /// Zeroed coefficient plane for a `w`×`h` image (multiples of 8).
    pub fn new(name: &str, w: usize, h: usize) -> Self {
        assert!(
            w.is_multiple_of(8) && h.is_multiple_of(8),
            "dimensions must be multiples of 8"
        );
        let blocks_w = w / 8;
        let blocks_h = h / 8;
        Self {
            w,
            h,
            blocks_w,
            blocks_h,
            data: RegionBuf::new(name, blocks_w * blocks_h * 64),
        }
    }

    pub fn width(&self) -> usize {
        self.w
    }

    pub fn height(&self) -> usize {
        self.h
    }

    pub fn blocks_w(&self) -> usize {
        self.blocks_w
    }

    pub fn blocks_h(&self) -> usize {
        self.blocks_h
    }

    /// Lease the blocks of block-rows `[rows.start, rows.end)` for writing.
    pub fn write_block_rows(&self, rows: Range<usize>) -> WriteLease<'_, i16> {
        self.data
            .lease_write(rows.start * self.blocks_w * 64..rows.end * self.blocks_w * 64)
    }

    /// Lease the blocks of block-rows `[rows.start, rows.end)` for reading.
    pub fn read_block_rows(&self, rows: Range<usize>) -> ReadLease<'_, i16> {
        self.data
            .lease_read(rows.start * self.blocks_w * 64..rows.end * self.blocks_w * 64)
    }

    pub fn read_all(&self) -> ReadLease<'_, i16> {
        self.data.lease_read_all()
    }

    /// Report a sweep over block-rows `rows`.
    pub fn touch_block_rows(
        &self,
        meter: &mut dyn hinch::meter::Meter,
        rows: Range<usize>,
        kind: AccessKind,
    ) {
        meter.touch(self.data.access(
            rows.start * self.blocks_w * 64..rows.end * self.blocks_w * 64,
            kind,
        ));
    }
}

impl std::fmt::Debug for CoefPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CoefPlane({}x{}, {}x{} blocks)",
            self.w, self.h, self.blocks_w, self.blocks_h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_roundtrip() {
        let p = Plane::from_pixels("p", 4, 3, (0..12).collect());
        assert_eq!(p.width(), 4);
        assert_eq!(p.height(), 3);
        assert_eq!(p.to_vec(), (0..12).collect::<Vec<u8>>());
    }

    #[test]
    fn row_leases_are_disjoint_by_row() {
        let p = Plane::new("p", 8, 8);
        {
            let mut top = p.write_rows(0..4);
            let mut bottom = p.write_rows(4..8);
            top.fill(1);
            bottom.fill(2);
        }
        let v = p.to_vec();
        assert!(v[..32].iter().all(|&x| x == 1));
        assert!(v[32..].iter().all(|&x| x == 2));
    }

    #[test]
    fn overlapping_row_writes_panic() {
        let p = Plane::new("p", 8, 8);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = p.write_rows(0..5);
            let _b = p.write_rows(4..8);
        }))
        .expect_err("overlapping row leases must panic");
        let conflict = payload
            .downcast_ref::<hinch::sharedbuf::LeaseConflict>()
            .expect("panic carries a structured LeaseConflict");
        assert!(conflict.to_string().contains("overlaps"), "{conflict}");
    }

    #[test]
    fn coef_plane_block_addressing() {
        let c = CoefPlane::new("c", 16, 8);
        assert_eq!(c.blocks_w(), 2);
        assert_eq!(c.blocks_h(), 1);
        {
            let mut w = c.write_block_rows(0..1);
            assert_eq!(w.len(), 2 * 64);
            w[64] = 7; // DC of block (1, 0)
        }
        let r = c.read_all();
        assert_eq!(r[64], 7);
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn coef_plane_requires_block_dims() {
        let _ = CoefPlane::new("c", 10, 8);
    }

    #[test]
    #[should_panic(expected = "pixel count")]
    fn from_pixels_checks_len() {
        let _ = Plane::from_pixels("p", 4, 4, vec![0; 15]);
    }
}
