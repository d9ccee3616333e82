//! QOI decoding, PNG encoding and the image-compression application.
//!
//! Figure 8's compute-intensive application transforms an 18 kB QOI image to
//! PNG. Both codecs are implemented from scratch here: a complete QOI
//! decoder (the format is small by design) and a PNG encoder that emits
//! zlib "stored" deflate blocks — valid PNG output without an external
//! compression library.

use dandelion_isolation::{FunctionArtifact, FunctionCtx};

/// A decoded RGBA image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// RGBA pixel data, row-major, 4 bytes per pixel.
    pub pixels: Vec<u8>,
}

impl Image {
    /// Generates a deterministic synthetic test image (a colour gradient
    /// with structured regions so both codecs get realistic input).
    pub fn synthetic(width: u32, height: u32) -> Image {
        let mut pixels = Vec::with_capacity((width * height * 4) as usize);
        for y in 0..height {
            for x in 0..width {
                let r = (x * 255 / width.max(1)) as u8;
                let g = (y * 255 / height.max(1)) as u8;
                let b = ((x + y) % 64 * 4) as u8;
                let a = 255;
                // Flat regions every 8 columns make QOI runs/index entries
                // exercise more of the format.
                if (x / 8) % 2 == 0 {
                    pixels.extend_from_slice(&[r, g, 128, a]);
                } else {
                    pixels.extend_from_slice(&[r, g, b, a]);
                }
            }
        }
        Image {
            width,
            height,
            pixels,
        }
    }
}

// --------------------------------------------------------------------------
// QOI
// --------------------------------------------------------------------------

const QOI_MAGIC: &[u8; 4] = b"qoif";
const QOI_OP_INDEX: u8 = 0x00;
const QOI_OP_DIFF: u8 = 0x40;
const QOI_OP_LUMA: u8 = 0x80;
const QOI_OP_RUN: u8 = 0xC0;
const QOI_OP_RGB: u8 = 0xFE;
const QOI_OP_RGBA: u8 = 0xFF;

fn qoi_hash(pixel: [u8; 4]) -> usize {
    (pixel[0] as usize * 3 + pixel[1] as usize * 5 + pixel[2] as usize * 7 + pixel[3] as usize * 11)
        % 64
}

/// Encodes an RGBA image as QOI (used to build benchmark/test inputs).
pub fn qoi_encode(image: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(image.pixels.len() / 2 + 32);
    out.extend_from_slice(QOI_MAGIC);
    out.extend_from_slice(&image.width.to_be_bytes());
    out.extend_from_slice(&image.height.to_be_bytes());
    out.push(4); // channels
    out.push(0); // colorspace
    let mut index = [[0u8; 4]; 64];
    let mut previous = [0u8, 0, 0, 255];
    let mut run = 0u8;
    for chunk in image.pixels.chunks_exact(4) {
        let pixel = [chunk[0], chunk[1], chunk[2], chunk[3]];
        if pixel == previous {
            run += 1;
            if run == 62 {
                out.push(QOI_OP_RUN | (run - 1));
                run = 0;
            }
            continue;
        }
        if run > 0 {
            out.push(QOI_OP_RUN | (run - 1));
            run = 0;
        }
        let hash = qoi_hash(pixel);
        if index[hash] == pixel {
            out.push(QOI_OP_INDEX | hash as u8);
        } else if pixel[3] == previous[3] {
            let dr = pixel[0].wrapping_sub(previous[0]) as i8 as i16;
            let dg = pixel[1].wrapping_sub(previous[1]) as i8 as i16;
            let db = pixel[2].wrapping_sub(previous[2]) as i8 as i16;
            if (-2..=1).contains(&dr) && (-2..=1).contains(&dg) && (-2..=1).contains(&db) {
                out.push(
                    QOI_OP_DIFF
                        | (((dr + 2) as u8) << 4)
                        | (((dg + 2) as u8) << 2)
                        | ((db + 2) as u8),
                );
            } else {
                let dr_dg = dr - dg;
                let db_dg = db - dg;
                if (-32..=31).contains(&dg)
                    && (-8..=7).contains(&dr_dg)
                    && (-8..=7).contains(&db_dg)
                {
                    out.push(QOI_OP_LUMA | ((dg + 32) as u8));
                    out.push((((dr_dg + 8) as u8) << 4) | ((db_dg + 8) as u8));
                } else {
                    out.push(QOI_OP_RGB);
                    out.extend_from_slice(&pixel[..3]);
                }
            }
        } else {
            out.push(QOI_OP_RGBA);
            out.extend_from_slice(&pixel);
        }
        index[hash] = pixel;
        previous = pixel;
    }
    if run > 0 {
        out.push(QOI_OP_RUN | (run - 1));
    }
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 1]);
    out
}

/// Decodes a QOI image.
pub fn qoi_decode(bytes: &[u8]) -> Result<Image, String> {
    if bytes.len() < 14 || &bytes[0..4] != QOI_MAGIC {
        return Err("not a QOI file".to_string());
    }
    let width = u32::from_be_bytes(bytes[4..8].try_into().expect("slice of 4"));
    let height = u32::from_be_bytes(bytes[8..12].try_into().expect("slice of 4"));
    let pixel_count = width as usize * height as usize;
    if pixel_count > 64 * 1024 * 1024 {
        return Err("image too large".to_string());
    }
    let mut pixels = Vec::with_capacity(pixel_count * 4);
    let mut index = [[0u8; 4]; 64];
    let mut pixel = [0u8, 0, 0, 255];
    let mut cursor = 14;
    while pixels.len() < pixel_count * 4 {
        if cursor >= bytes.len() {
            return Err("truncated QOI stream".to_string());
        }
        let byte = bytes[cursor];
        cursor += 1;
        match byte {
            QOI_OP_RGB => {
                if cursor + 3 > bytes.len() {
                    return Err("truncated RGB op".to_string());
                }
                pixel[0] = bytes[cursor];
                pixel[1] = bytes[cursor + 1];
                pixel[2] = bytes[cursor + 2];
                cursor += 3;
            }
            QOI_OP_RGBA => {
                if cursor + 4 > bytes.len() {
                    return Err("truncated RGBA op".to_string());
                }
                pixel.copy_from_slice(&bytes[cursor..cursor + 4]);
                cursor += 4;
            }
            _ => match byte & 0xC0 {
                QOI_OP_INDEX => pixel = index[(byte & 0x3F) as usize],
                QOI_OP_DIFF => {
                    let dr = ((byte >> 4) & 0x03) as i16 - 2;
                    let dg = ((byte >> 2) & 0x03) as i16 - 2;
                    let db = (byte & 0x03) as i16 - 2;
                    pixel[0] = (pixel[0] as i16 + dr) as u8;
                    pixel[1] = (pixel[1] as i16 + dg) as u8;
                    pixel[2] = (pixel[2] as i16 + db) as u8;
                }
                QOI_OP_LUMA => {
                    if cursor >= bytes.len() {
                        return Err("truncated LUMA op".to_string());
                    }
                    let dg = (byte & 0x3F) as i16 - 32;
                    let second = bytes[cursor];
                    cursor += 1;
                    let dr_dg = ((second >> 4) & 0x0F) as i16 - 8;
                    let db_dg = (second & 0x0F) as i16 - 8;
                    pixel[0] = (pixel[0] as i16 + dg + dr_dg) as u8;
                    pixel[1] = (pixel[1] as i16 + dg) as u8;
                    pixel[2] = (pixel[2] as i16 + dg + db_dg) as u8;
                }
                QOI_OP_RUN => {
                    let run = (byte & 0x3F) as usize + 1;
                    for _ in 0..run {
                        pixels.extend_from_slice(&pixel);
                    }
                    index[qoi_hash(pixel)] = pixel;
                    continue;
                }
                _ => unreachable!("all two-bit tags covered"),
            },
        }
        index[qoi_hash(pixel)] = pixel;
        pixels.extend_from_slice(&pixel);
    }
    pixels.truncate(pixel_count * 4);
    Ok(Image {
        width,
        height,
        pixels,
    })
}

// --------------------------------------------------------------------------
// PNG
// --------------------------------------------------------------------------

fn crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (index, entry) in table.iter_mut().enumerate() {
        let mut value = index as u32;
        for _ in 0..8 {
            value = if value & 1 == 1 {
                0xEDB8_8320 ^ (value >> 1)
            } else {
                value >> 1
            };
        }
        *entry = value;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for byte in bytes {
        crc = table[((crc ^ *byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

fn adler32(bytes: &[u8]) -> u32 {
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for byte in bytes {
        a = (a + *byte as u32) % 65_521;
        b = (b + a) % 65_521;
    }
    (b << 16) | a
}

fn png_chunk(put: &mut impl FnMut(&[u8]), kind: &[u8; 4], payload: &[u8]) {
    put(&(payload.len() as u32).to_be_bytes());
    put(kind);
    put(payload);
    let mut crc_input = Vec::with_capacity(4 + payload.len());
    crc_input.extend_from_slice(kind);
    crc_input.extend_from_slice(payload);
    put(&crc32(&crc_input).to_be_bytes());
}

/// Encodes an RGBA image as a PNG file (zlib stored blocks, no filtering).
pub fn png_encode(image: &Image) -> Vec<u8> {
    let mut out = Vec::new();
    png_encode_into(image, |bytes| out.extend_from_slice(bytes));
    out
}

/// [`png_encode`], handing the file to `put` chunk by chunk.
fn png_encode_into(image: &Image, mut put: impl FnMut(&[u8])) {
    let out = &mut put;
    out(&[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']);

    // IHDR
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&image.width.to_be_bytes());
    ihdr.extend_from_slice(&image.height.to_be_bytes());
    ihdr.extend_from_slice(&[8, 6, 0, 0, 0]); // 8-bit RGBA
    png_chunk(out, b"IHDR", &ihdr);

    // Raw scanlines: filter byte 0 + RGBA row.
    let row_bytes = image.width as usize * 4;
    let mut raw = Vec::with_capacity((row_bytes + 1) * image.height as usize);
    for row in 0..image.height as usize {
        raw.push(0);
        raw.extend_from_slice(&image.pixels[row * row_bytes..(row + 1) * row_bytes]);
    }

    // zlib stream with stored (uncompressed) deflate blocks.
    let mut idat = vec![0x78, 0x01];
    let mut offset = 0usize;
    while offset < raw.len() {
        let chunk = (raw.len() - offset).min(65_535);
        let last = offset + chunk == raw.len();
        idat.push(if last { 1 } else { 0 });
        idat.extend_from_slice(&(chunk as u16).to_le_bytes());
        idat.extend_from_slice(&(!(chunk as u16)).to_le_bytes());
        idat.extend_from_slice(&raw[offset..offset + chunk]);
        offset += chunk;
    }
    idat.extend_from_slice(&adler32(&raw).to_be_bytes());
    png_chunk(out, b"IDAT", &idat);
    png_chunk(out, b"IEND", &[]);
}

/// Parses the dimensions out of a PNG produced by [`png_encode`].
pub fn png_dimensions(bytes: &[u8]) -> Option<(u32, u32)> {
    if bytes.len() < 33 || bytes[1..4] != *b"PNG" {
        return None;
    }
    let width = u32::from_be_bytes(bytes[16..20].try_into().ok()?);
    let height = u32::from_be_bytes(bytes[20..24].try_into().ok()?);
    Some((width, height))
}

/// The `CompressImage` compute function: QOI in, PNG out.
pub fn compress_artifact() -> FunctionArtifact {
    FunctionArtifact::new("CompressImage", &["Png"], |ctx: &mut FunctionCtx| {
        let input = ctx.single_input("Qoi")?.clone();
        let image = qoi_decode(&input.data)?;
        // Stored, not compressed: the file is the scanlines (a filter byte
        // and the pixels per row), five bytes per 64 KiB block of them and
        // under a hundred of chunk framing.
        let scanlines = (image.width as usize * 4 + 1) * image.height as usize;
        let mut file = ctx.output_buffer(scanlines + scanlines / 65_535 * 5 + 128);
        png_encode_into(&image, |chunk| file.put_slice(chunk));
        ctx.push_output_bytes("Png", "image.png", file)
    })
    .with_binary_size(96 * 1024)
    .with_memory_requirement(64 * 1024 * 1024)
}

/// The image-compression composition: a single compute node.
pub fn composition() -> dandelion_dsl::CompositionGraph {
    dandelion_dsl::CompositionBuilder::new("CompressImageApp")
        .input("Qoi")
        .output("Png")
        .node("CompressImage", |node| {
            node.bind("Qoi", dandelion_dsl::Distribution::All, "Qoi")
                .publish("Png", "Png")
        })
        .build()
        .expect("static image composition")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qoi_roundtrip_preserves_pixels() {
        let image = Image::synthetic(64, 48);
        let encoded = qoi_encode(&image);
        assert!(encoded.len() < image.pixels.len());
        let decoded = qoi_decode(&encoded).unwrap();
        assert_eq!(decoded, image);
    }

    #[test]
    fn qoi_rejects_garbage() {
        assert!(qoi_decode(b"not a qoi").is_err());
        let image = Image::synthetic(8, 8);
        let encoded = qoi_encode(&image);
        assert!(qoi_decode(&encoded[..20]).is_err());
    }

    #[test]
    fn png_structure_is_valid() {
        let image = Image::synthetic(32, 16);
        let png = png_encode(&image);
        assert_eq!(
            &png[..8],
            &[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']
        );
        assert_eq!(png_dimensions(&png), Some((32, 16)));
        assert!(png.windows(4).any(|window| window == b"IDAT"));
        assert!(png.ends_with(&crc32(b"IEND").to_be_bytes()));
    }

    #[test]
    fn checksums_match_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn compress_artifact_produces_png_from_qoi() {
        use dandelion_common::DataSet;
        use dandelion_isolation::SyscallPolicy;
        let image = Image::synthetic(96, 48);
        let qoi = qoi_encode(&image);
        // Paper uses an ~18 kB QOI input; the synthetic image is in range.
        assert!(qoi.len() > 4 * 1024);

        let artifact = compress_artifact();
        let mut ctx = FunctionCtx::new(
            vec![DataSet::single("Qoi", qoi)],
            artifact.output_sets.clone(),
            64 * 1024 * 1024,
            SyscallPolicy::strict(),
        )
        .unwrap();
        artifact.logic.run(&mut ctx).unwrap();
        let outputs = ctx.take_outputs();
        assert_eq!(png_dimensions(&outputs[0].items[0].data), Some((96, 48)));
    }

    #[test]
    fn compress_artifact_rejects_invalid_input() {
        use dandelion_common::DataSet;
        use dandelion_isolation::SyscallPolicy;
        let artifact = compress_artifact();
        let mut ctx = FunctionCtx::new(
            vec![DataSet::single("Qoi", b"garbage".to_vec())],
            artifact.output_sets.clone(),
            1024 * 1024,
            SyscallPolicy::strict(),
        )
        .unwrap();
        assert!(artifact.logic.run(&mut ctx).is_err());
    }
}
