//! Timestamped `u.data` loading.
//!
//! `cf-data`'s loader discards the fourth (timestamp) column because the
//! paper's protocol never uses it; this one keeps it, producing a
//! [`TimestampedMatrix`] the temporal extension can run on real
//! MovieLens data.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use crate::TimestampedMatrix;

/// Errors while loading timestamped ratings: the plain loader's, since
/// both parse each line through [`cf_data::parse_line`].
pub type TemporalLoadError = cf_data::LoadError;

/// Parses `user<TAB>item<TAB>rating<TAB>timestamp` lines (1-based ids,
/// an integer timestamp **required** here, unlike the plain loader)
/// through [`cf_data::parse_line`].
pub fn load_timestamped_reader<R: Read>(reader: R) -> Result<TimestampedMatrix, TemporalLoadError> {
    let reader = BufReader::new(reader);
    let mut quads = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let (line, line_no) = (line?, idx + 1);
        let Some((user, item, rating, t)) = cf_data::parse_line(&line, line_no)? else {
            continue;
        };
        let parse_error = |message| TemporalLoadError::Parse {
            line: line_no,
            message,
        };
        let raw = t.ok_or_else(|| parse_error("expected 4 fields, found 3".into()))?;
        let t = raw
            .parse()
            .map_err(|_| parse_error(format!("cannot parse timestamp from {raw:?}")))?;
        quads.push((user, item, rating, t));
    }
    TimestampedMatrix::from_quads(quads).map_err(TemporalLoadError::Matrix)
}

/// Loads a timestamped `u.data` file from disk.
pub fn load_timestamped(path: impl AsRef<Path>) -> Result<TimestampedMatrix, TemporalLoadError> {
    let file = std::fs::File::open(path).map_err(TemporalLoadError::Io)?;
    load_timestamped_reader(file)
}

/// Parses timestamped `u.data` text from a string.
pub fn load_timestamped_str(text: &str) -> Result<TimestampedMatrix, TemporalLoadError> {
    load_timestamped_reader(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, UserId};

    #[test]
    fn parses_movielens_lines_with_timestamps() {
        let data = load_timestamped_str("1\t2\t5\t881250949\n2\t1\t3\t891717742\n").unwrap();
        assert_eq!(data.matrix().num_ratings(), 2);
        assert_eq!(
            data.time_of(UserId::new(0), ItemId::new(1)),
            Some(881_250_949)
        );
        assert_eq!(data.t_max(), 891_717_742);
    }

    #[test]
    fn missing_timestamp_is_an_error() {
        let e = load_timestamped_str("1\t2\t5\n").unwrap_err();
        assert!(e.to_string().contains("expected 4 fields"), "{e}");
    }

    #[test]
    fn zero_ids_rejected() {
        assert!(load_timestamped_str("0\t1\t3\t1\n").is_err());
    }

    /// Ids are parsed as the plain loader parses them: neither an id
    /// past `u32::MAX` nor a fractional one is cast into range.
    #[test]
    fn ids_that_are_not_u32_integers_fail_naming_their_line() {
        for bad in ["4294967297\t1\t3\t10", "2.9\t1\t3\t10"] {
            let e = load_timestamped_str(&format!("1\t1\t4\t5\n{bad}\n")).unwrap_err();
            assert!(
                matches!(e, TemporalLoadError::Parse { line: 2, .. }),
                "{bad:?}: {e}"
            );
            assert!(e.to_string().contains("cannot parse user id"), "{e}");
        }
    }

    #[test]
    fn a_timestamp_that_is_not_an_integer_fails_naming_its_line() {
        let e = load_timestamped_str("1\t1\t4\t5\n1\t2\t4\t12.5\n").unwrap_err();
        assert!(matches!(e, TemporalLoadError::Parse { line: 2, .. }), "{e}");
        assert!(e.to_string().contains("cannot parse timestamp"), "{e}");
    }

    #[test]
    fn bad_ratings_propagate_matrix_validation() {
        let e = load_timestamped_str("1\t1\t42\t1\n").unwrap_err();
        assert!(matches!(e, TemporalLoadError::Matrix(_)));
    }
}
