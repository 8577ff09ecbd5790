//! DRAM commands as issued on the DIMM command/address bus.

use crate::address::DramCoord;

/// The DDR4 command subset the model issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdKind {
    /// Activate (open) a row.
    Activate,
    /// Precharge (close) the open row.
    Precharge,
    /// Column read of one burst.
    Read,
    /// Column write of one burst.
    Write,
    /// All-bank refresh of one rank.
    Refresh,
}

impl CmdKind {
    /// True for the column commands that move data on the bus.
    pub fn is_column(self) -> bool {
        matches!(self, CmdKind::Read | CmdKind::Write)
    }
}

/// One command addressed to a chip group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Command opcode.
    pub kind: CmdKind,
    /// Target coordinates. For [`CmdKind::Refresh`] only `rank` matters.
    pub coord: DramCoord,
}

impl Command {
    /// Creates a command.
    pub fn new(kind: CmdKind, coord: DramCoord) -> Self {
        Command { kind, coord }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_classification() {
        assert!(CmdKind::Read.is_column());
        assert!(CmdKind::Write.is_column());
        assert!(!CmdKind::Activate.is_column());
        assert!(!CmdKind::Precharge.is_column());
        assert!(!CmdKind::Refresh.is_column());
    }
}
