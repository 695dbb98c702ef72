//! POSIX-style error numbers for component interfaces.
//!
//! Unikraft components keep POSIX call semantics, returning negative error
//! numbers across interfaces. Entry points in this reproduction do the
//! same — a cross-cubicle call returns `Value::I64(-errno)` on a domain
//! error — which keeps the trampoline ABI to scalars and pointers, exactly
//! like the C original.

use std::fmt;

/// A small POSIX errno subset used by the library OS components.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(i32)]
pub enum Errno {
    /// Operation not permitted.
    Eperm = 1,
    /// No such file or directory.
    Enoent = 2,
    /// I/O error.
    Eio = 5,
    /// Bad file descriptor.
    Ebadf = 9,
    /// Out of memory.
    Enomem = 12,
    /// Permission denied.
    Eacces = 13,
    /// Bad address. The monitor's unwind path returns this to the nearest
    /// healthy caller when a fault was contained to a quarantined cubicle.
    Efault = 14,
    /// File exists.
    Eexist = 17,
    /// Cross-device link: the two descriptors live on different mounts.
    Exdev = 18,
    /// Not a directory.
    Enotdir = 20,
    /// Is a directory.
    Eisdir = 21,
    /// Invalid argument.
    Einval = 22,
    /// Too many open files.
    Emfile = 24,
    /// No space left on device.
    Enospc = 28,
    /// Function not implemented.
    Enosys = 38,
    /// Directory not empty.
    Enotempty = 39,
    /// Address already in use.
    Eaddrinuse = 98,
    /// Connection reset by peer.
    Econnreset = 104,
    /// Not connected.
    Enotconn = 107,
    /// Connection timed out. The watchdog's unwind path returns this to
    /// the nearest healthy caller when a callee overran its cycle budget.
    Etimedout = 110,
    /// Connection refused.
    Econnrefused = 111,
    /// Operation would block.
    Ewouldblock = 11,
}

impl Errno {
    /// The negative `i64` this errno encodes to on the wire.
    pub const fn neg(self) -> i64 {
        -(self as i32 as i64)
    }

    /// Decodes a negative return value back into an errno.
    ///
    /// Returns `None` for non-negative values or unknown numbers.
    pub fn from_neg(value: i64) -> Option<Errno> {
        if value >= 0 {
            return None;
        }
        Some(match -value {
            1 => Errno::Eperm,
            2 => Errno::Enoent,
            5 => Errno::Eio,
            9 => Errno::Ebadf,
            11 => Errno::Ewouldblock,
            12 => Errno::Enomem,
            13 => Errno::Eacces,
            14 => Errno::Efault,
            17 => Errno::Eexist,
            18 => Errno::Exdev,
            20 => Errno::Enotdir,
            21 => Errno::Eisdir,
            22 => Errno::Einval,
            24 => Errno::Emfile,
            28 => Errno::Enospc,
            38 => Errno::Enosys,
            39 => Errno::Enotempty,
            98 => Errno::Eaddrinuse,
            104 => Errno::Econnreset,
            107 => Errno::Enotconn,
            110 => Errno::Etimedout,
            111 => Errno::Econnrefused,
            _ => return None,
        })
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Errno::Eperm => "EPERM",
            Errno::Enoent => "ENOENT",
            Errno::Eio => "EIO",
            Errno::Ebadf => "EBADF",
            Errno::Enomem => "ENOMEM",
            Errno::Eacces => "EACCES",
            Errno::Efault => "EFAULT",
            Errno::Eexist => "EEXIST",
            Errno::Exdev => "EXDEV",
            Errno::Enotdir => "ENOTDIR",
            Errno::Eisdir => "EISDIR",
            Errno::Einval => "EINVAL",
            Errno::Emfile => "EMFILE",
            Errno::Enospc => "ENOSPC",
            Errno::Enosys => "ENOSYS",
            Errno::Enotempty => "ENOTEMPTY",
            Errno::Eaddrinuse => "EADDRINUSE",
            Errno::Econnreset => "ECONNRESET",
            Errno::Enotconn => "ENOTCONN",
            Errno::Etimedout => "ETIMEDOUT",
            Errno::Econnrefused => "ECONNREFUSED",
            Errno::Ewouldblock => "EWOULDBLOCK",
        };
        f.write_str(name)
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_round_trip() {
        for e in [
            Errno::Eperm,
            Errno::Enoent,
            Errno::Eio,
            Errno::Ebadf,
            Errno::Enomem,
            Errno::Eacces,
            Errno::Efault,
            Errno::Eexist,
            Errno::Exdev,
            Errno::Enotdir,
            Errno::Eisdir,
            Errno::Einval,
            Errno::Emfile,
            Errno::Enospc,
            Errno::Enosys,
            Errno::Enotempty,
            Errno::Eaddrinuse,
            Errno::Econnreset,
            Errno::Enotconn,
            Errno::Etimedout,
            Errno::Econnrefused,
            Errno::Ewouldblock,
        ] {
            assert!(e.neg() < 0);
            assert_eq!(Errno::from_neg(e.neg()), Some(e), "{e}");
        }
    }

    #[test]
    fn non_negative_is_not_an_error() {
        assert_eq!(Errno::from_neg(0), None);
        assert_eq!(Errno::from_neg(42), None);
    }

    #[test]
    fn unknown_number_is_none() {
        assert_eq!(Errno::from_neg(-9999), None);
    }

    #[test]
    fn display_is_upper_snake() {
        assert_eq!(Errno::Enoent.to_string(), "ENOENT");
        assert_eq!(Errno::Ewouldblock.to_string(), "EWOULDBLOCK");
    }
}
