//! Equivalence differential for the name interner
//! (`syndcim_ir::InternerBuilder` and `Symbols::from_module`).
//!
//! The reference oracle below is the earlier builder, kept verbatim: a
//! SipHash `HashMap<String, u32>` index that owns a second copy of
//! every distinct name, and the `from_module` walk that interned each
//! group's path, head and every `/`-prefix through it, with the path
//! tree keyed by a `HashMap<Symbol, u32>`. The arena-keyed builder must
//! reproduce it exactly:
//!
//! * **every table, entry by entry** — nets, instances, the instance →
//!   group map, group paths, group heads, group → node, path-tree nodes,
//!   node parents and the name-sorted ports agree on each entry's
//!   `Symbol::index()` and resolved string;
//! * **the arena** — equal `interner().len()` and `heap_bytes()` (every
//!   interned string is reachable from some table, so equal ids and
//!   strings across all tables mean equal arenas, in first-occurrence
//!   order).
//!
//! Workloads: the search-chosen paper chip (as assembled and as
//! optimized), the default 64×64 macro, the 8×8 design grid with and
//! without FP units, 48 seeded synthetic modules with adversarial names
//! (empty, 1–17 bytes around the 8-byte hash chunk, multi-byte UTF-8,
//! shared 8-byte prefixes, names repeated across nets, instances and
//! ports, group paths such as `a//b`, `a/` and 8-deep), and a bare
//! builder grown from its minimum capacity past 2¹⁷ symbols. The
//! 256×256 scale-tier arm runs only under `SYNDCIM_SLOW_TESTS=1`.

use rand::rngs::StdRng;
use rand::Rng;
use syndcim_core::{assemble, search, DesignChoice, MacroSpec};
use syndcim_ir::{InternerBuilder, Symbols};
use syndcim_netlist::{optimize, GroupId, Instance, Module, Net, NetId, Port, PortDir};
use syndcim_pdk::{CellKind, CellLibrary};
use syndcim_scl::Scl;
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::FpFormat;
use syndcim_subckt::{AdderTreeKind, BitcellKind, MultMuxKind};

/// The earlier `HashMap`-indexed builder and `from_module`, kept as the
/// test oracle.
mod reference {
    use std::collections::HashMap;

    use syndcim_netlist::Module;

    /// An interned string: a 4-byte handle resolved against the
    /// [`Interner`] it was created by.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct Symbol(u32);

    impl Symbol {
        /// The symbol's dense index within its interner.
        pub fn index(self) -> usize {
            self.0 as usize
        }
    }

    /// Mutable, deduplicating interner used while names are collected.
    /// [`InternerBuilder::freeze`] discards the lookup index and returns
    /// the compact resolve-only [`Interner`].
    #[derive(Debug, Default)]
    pub struct InternerBuilder {
        buf: String,
        ends: Vec<u32>,
        /// Build-time lookup only — dropped by `freeze`, so duplicate
        /// string storage never survives into the retained artifact.
        index: HashMap<String, u32>,
    }

    impl InternerBuilder {
        /// An empty builder.
        pub fn new() -> Self {
            Self::default()
        }

        /// Intern `s`, returning the existing symbol if the exact string
        /// was interned before (dedup is by full string equality).
        pub fn intern(&mut self, s: &str) -> Symbol {
            if let Some(&i) = self.index.get(s) {
                return Symbol(i);
            }
            let i = self.ends.len() as u32;
            self.buf.push_str(s);
            self.ends.push(self.buf.len() as u32);
            self.index.insert(s.to_string(), i);
            Symbol(i)
        }

        /// Number of distinct strings interned so far.
        pub fn len(&self) -> usize {
            self.ends.len()
        }

        /// Freeze into the compact resolve-only [`Interner`], dropping the
        /// build-time lookup index.
        pub fn freeze(self) -> Interner {
            Interner { buf: self.buf.into_boxed_str(), ends: self.ends.into_boxed_slice() }
        }
    }

    /// A frozen string arena.
    #[derive(Debug)]
    pub struct Interner {
        buf: Box<str>,
        ends: Box<[u32]>,
    }

    impl Interner {
        /// The string a symbol stands for.
        pub fn resolve(&self, sym: Symbol) -> &str {
            let i = sym.index();
            let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
            &self.buf[start..self.ends[i] as usize]
        }

        /// Number of distinct interned strings.
        pub fn len(&self) -> usize {
            self.ends.len()
        }

        /// Retained heap bytes: the byte arena plus the offset table.
        pub fn heap_bytes(&self) -> usize {
            self.buf.len() + self.ends.len() * std::mem::size_of::<u32>()
        }
    }

    /// Sentinel for "no parent group".
    pub const NO_PARENT: u32 = u32::MAX;

    /// The interned name tables of one module.
    pub struct Symbols {
        pub interner: Interner,
        pub net_syms: Vec<Symbol>,
        pub inst_syms: Vec<Symbol>,
        pub inst_group: Vec<u32>,
        pub group_syms: Vec<Symbol>,
        pub group_head_syms: Vec<Symbol>,
        pub group_node: Vec<u32>,
        pub node_syms: Vec<Symbol>,
        pub node_parent: Vec<u32>,
        pub port_syms: Vec<Symbol>,
        pub port_nets: Vec<u32>,
    }

    impl Symbols {
        /// Intern every net, instance and group name of `module` in one
        /// pass. Group heads (the path segment before the first `/`) and
        /// the per-group parent links are derived here, while the
        /// deduplicating builder index is still alive.
        pub fn from_module(module: &Module) -> Symbols {
            let mut b = InternerBuilder::new();
            let net_syms: Vec<Symbol> = module.nets.iter().map(|n| b.intern(&n.name)).collect();
            let inst_syms: Vec<Symbol> = module.instances.iter().map(|i| b.intern(&i.name)).collect();
            let inst_group: Vec<u32> = module.instances.iter().map(|i| i.group.0).collect();

            let mut group_syms = Vec::with_capacity(module.groups.len());
            let mut group_head_syms = Vec::with_capacity(module.groups.len());
            let mut group_node = Vec::with_capacity(module.groups.len());
            // Path tree keyed by full-path symbol: duplicate-named groups
            // share one node, and every `/`-prefix gets a node of its own
            // (created before its children, so node ids are topologically
            // ordered parents-first).
            let mut node_index: HashMap<Symbol, u32> = HashMap::new();
            let mut node_syms: Vec<Symbol> = Vec::new();
            let mut node_parent: Vec<u32> = Vec::new();
            for name in &module.groups {
                group_syms.push(b.intern(name));
                group_head_syms.push(b.intern(name.split('/').next().unwrap_or(name)));
                let mut parent = NO_PARENT;
                let mut node = NO_PARENT;
                let bounds = name.match_indices('/').map(|(i, _)| i).chain(std::iter::once(name.len()));
                for end in bounds {
                    let sym = b.intern(&name[..end]);
                    node = *node_index.entry(sym).or_insert_with(|| {
                        node_syms.push(sym);
                        node_parent.push(parent);
                        node_syms.len() as u32 - 1
                    });
                    parent = node;
                }
                group_node.push(node);
            }

            // Boundary ports, sorted by name once at build time so every
            // later lookup is an allocation-free binary search against the
            // shared table.
            let mut port_order: Vec<usize> = (0..module.ports.len()).collect();
            port_order.sort_by(|&a, &b| module.ports[a].name.cmp(&module.ports[b].name));
            let port_syms: Vec<Symbol> =
                port_order.iter().map(|&i| b.intern(&module.ports[i].name)).collect();
            let port_nets: Vec<u32> =
                port_order.iter().map(|&i| module.ports[i].net.index() as u32).collect();

            Symbols {
                interner: b.freeze(),
                net_syms,
                inst_syms,
                inst_group,
                group_syms,
                group_head_syms,
                group_node,
                node_syms,
                node_parent,
                port_syms,
                port_nets,
            }
        }

        /// Retained heap bytes of the symbol tables plus the interner.
        pub fn heap_bytes(&self) -> usize {
            let sym = std::mem::size_of::<Symbol>();
            let word = std::mem::size_of::<u32>();
            (self.net_syms.len()
                + self.inst_syms.len()
                + self.group_syms.len()
                + self.group_head_syms.len()
                + self.node_syms.len()
                + self.port_syms.len())
                * sym
                + (self.inst_group.len()
                    + self.group_node.len()
                    + self.node_parent.len()
                    + self.port_nets.len())
                    * word
                + self.interner.heap_bytes()
        }
    }
}

/// Build `module`'s symbols both ways and require identical tables,
/// entry by entry, and an identical arena.
fn assert_equivalent(module: &Module, label: &str) {
    let want = reference::Symbols::from_module(module);
    let got = Symbols::from_module(module);

    assert_eq!(got.interner().len(), want.interner.len(), "{label}: distinct symbols");
    assert_eq!(got.interner().heap_bytes(), want.interner.heap_bytes(), "{label}: arena bytes");
    assert_eq!(got.heap_bytes(), want.heap_bytes(), "{label}: retained bytes");

    let same = |table: &str, i: usize, g: syndcim_ir::Symbol, w: reference::Symbol| {
        assert_eq!(g.index(), w.index(), "{label}: {table}[{i}] symbol id");
        assert_eq!(got.resolve(g), want.interner.resolve(w), "{label}: {table}[{i}] string");
    };

    assert_eq!(got.net_count(), want.net_syms.len(), "{label}: nets");
    for (i, &w) in want.net_syms.iter().enumerate() {
        same("nets", i, got.net_sym(i), w);
    }
    assert_eq!(got.inst_count(), want.inst_syms.len(), "{label}: instances");
    for (i, &w) in want.inst_syms.iter().enumerate() {
        same("instances", i, got.inst_sym(i), w);
        assert_eq!(got.group_of(i), want.inst_group[i], "{label}: inst_group[{i}]");
    }
    assert_eq!(got.group_count(), want.group_syms.len(), "{label}: groups");
    for gid in 0..want.group_syms.len() {
        let g = gid as u32;
        same("groups", gid, got.group_sym(g), want.group_syms[gid]);
        same("heads", gid, got.group_head_sym(g), want.group_head_syms[gid]);
        assert_eq!(got.group_node(g), want.group_node[gid], "{label}: group_node[{gid}]");
    }
    assert_eq!(got.node_count(), want.node_syms.len(), "{label}: path nodes");
    for node in 0..want.node_syms.len() {
        let n = node as u32;
        same("nodes", node, got.node_sym(n), want.node_syms[node]);
        let parent = want.node_parent[node];
        assert_eq!(
            got.node_parent(n),
            (parent != reference::NO_PARENT).then_some(parent),
            "{label}: node_parent[{node}]"
        );
    }
    assert_eq!(got.port_count(), want.port_syms.len(), "{label}: ports");
    for (i, &w) in want.port_syms.iter().enumerate() {
        let (sym, net) = got.port(i);
        same("ports", i, sym, w);
        assert_eq!(net, want.port_nets[i], "{label}: port_nets[{i}]");
    }
}

fn spec(dim: usize, fp: bool) -> MacroSpec {
    MacroSpec {
        h: dim,
        w: dim,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: if fp { vec![FpFormat::FP4, FpFormat::FP8] } else { vec![] },
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

/// `module` as assembled and after the flow's netlist cleanup (the
/// module the `implement` lowering interns).
fn assert_equivalent_raw_and_optimized(lib: &CellLibrary, module: &Module, label: &str) {
    assert_equivalent(module, &format!("{label} (assembled)"));
    let mut optimized = module.clone();
    optimize(&mut optimized, lib);
    assert_equivalent(&optimized, &format!("{label} (optimized)"));
}

#[test]
fn paper_chip_and_default_64x64_intern_identically() {
    let paper_spec = MacroSpec::paper_test_chip();
    let mut scl = Scl::new();
    let found = search(&paper_spec, &mut scl);
    let best = found.best(&paper_spec).expect("the paper chip is feasible");
    let lib = scl.cell_library().clone();
    let paper = assemble(&lib, &paper_spec, &best.choice);
    assert_equivalent_raw_and_optimized(&lib, &paper.module, "paper chip");

    let lib = CellLibrary::syn40();
    let default = assemble(&lib, &spec(64, false), &DesignChoice::default());
    assert_equivalent_raw_and_optimized(&lib, &default.module, "default 64x64");
}

/// The bitcell × mult-mux × tree-kind × column-split grid at 8×8, with
/// and without FP units.
#[test]
fn design_grid_8x8_interns_identically() {
    const BITCELLS: [BitcellKind; 3] = [BitcellKind::Sram6T2T, BitcellKind::Latch8T, BitcellKind::Oai12T];
    const MULTMUXES: [MultMuxKind; 3] =
        [MultMuxKind::PassGate1T, MultMuxKind::TgNor, MultMuxKind::Oai22Fused];
    const TREES: [AdderTreeKind; 3] =
        [AdderTreeKind::RcaTree, AdderTreeKind::CompressorCsa, AdderTreeKind::MixedCsa { fa_rounds: 1 }];
    let lib = CellLibrary::syn40();
    for fp in [false, true] {
        let s = spec(8, fp);
        for bitcell in BITCELLS {
            for multmux in MULTMUXES {
                for tree_kind in TREES {
                    for column_split in [1, 2, 4] {
                        let c = DesignChoice {
                            bitcell,
                            multmux,
                            tree_kind,
                            column_split,
                            ..DesignChoice::default()
                        };
                        let mac = assemble(&lib, &s, &c);
                        assert_equivalent(&mac.module, &format!("8x8 fp={fp} {}", c.label()));
                    }
                }
            }
        }
    }
}

/// The 256×256 scale tier, optimized as the flow interns it (slow;
/// `SYNDCIM_SLOW_TESTS=1`).
#[test]
fn scale_tier_interns_identically() {
    if std::env::var_os("SYNDCIM_SLOW_TESTS").is_none() {
        eprintln!("skipping the 256x256 arm; set SYNDCIM_SLOW_TESTS=1 to run it");
        return;
    }
    let lib = CellLibrary::syn40();
    let mut mac = assemble(&lib, &spec(256, false), &DesignChoice::default());
    optimize(&mut mac.module, &lib);
    assert_equivalent(&mac.module, "256x256");
}

const SYNTHETIC_CASES: u64 = 48;

/// Multi-byte UTF-8 pieces (2-, 3- and 4-byte encodings).
const UTF8: [&str; 6] = ["é", "ß", "Ω", "名", "前", "🦀"];

/// Group paths with empty, trailing, leading and deep segments.
const ODD_PATHS: [&str; 9] = ["a//b", "a/", "/a", "", "/", "a/b/c/d/e/f/g/h", "a", "a/b", "a//"];

/// An adversarial name. One time in three it repeats an earlier name of
/// any table; otherwise it is empty, 1–17 random bytes (around the
/// 8-byte hash chunk), an 8-byte shared prefix plus a short suffix, a
/// multi-byte UTF-8 mix, or a generator-style `n<k>`.
fn name(rng: &mut StdRng, seen: &mut Vec<String>) -> String {
    if !seen.is_empty() && rng.gen_bool(0.35) {
        return seen[rng.gen_range(0..seen.len())].clone();
    }
    const ASCII: &[u8] = b"abcxyz_019[]./";
    let s = match rng.gen_range(0..6) {
        0 => String::new(),
        1 => (0..rng.gen_range(1..=17)).map(|_| ASCII[rng.gen_range(0..ASCII.len())] as char).collect(),
        2 => {
            let suffix: String =
                (0..rng.gen_range(0..=9)).map(|_| ASCII[rng.gen_range(0..ASCII.len())] as char).collect();
            format!("prefix08{suffix}")
        }
        3 => (0..rng.gen_range(1..=6))
            .map(|_| if rng.gen_bool(0.5) { UTF8[rng.gen_range(0..UTF8.len())] } else { "q" })
            .collect(),
        _ => format!("n{}", rng.gen_range(0..400)),
    };
    seen.push(s.clone());
    s
}

/// A group path: an odd fixed path, an earlier name (so a group may
/// share a symbol with a net that owns no path node), or 1–8 segments
/// drawn from [`name`], so segments may be empty or multi-byte.
fn group_path(rng: &mut StdRng, seen: &mut Vec<String>) -> String {
    match rng.gen_range(0..4) {
        0 => ODD_PATHS[rng.gen_range(0..ODD_PATHS.len())].to_string(),
        1 if !seen.is_empty() => seen[rng.gen_range(0..seen.len())].clone(),
        _ => (0..rng.gen_range(1..=8)).map(|_| name(rng, seen)).collect::<Vec<_>>().join("/"),
    }
}

/// A seeded module of adversarial names. Only the name tables and the
/// instance → group and port → net links matter to the interner, so the
/// cells are placeholders and the module need not be a valid netlist.
fn synthetic_module(lib: &CellLibrary, seed: u64) -> Module {
    let mut rng = seeded_rng(seed);
    let mut seen = Vec::new();
    let mut m = Module::new(format!("synthetic{seed}"));
    for _ in 0..rng.gen_range(0..32) {
        m.groups.push(group_path(&mut rng, &mut seen));
    }
    for _ in 0..rng.gen_range(0..200) {
        m.nets.push(Net { name: name(&mut rng, &mut seen) });
    }
    let inv = lib.id_of(CellKind::Inv);
    for _ in 0..rng.gen_range(0..150) {
        let group = GroupId(rng.gen_range(0..m.groups.len() as u32));
        m.instances.push(Instance {
            name: name(&mut rng, &mut seen),
            cell: inv,
            inputs: vec![],
            outputs: vec![],
            group,
        });
    }
    if !m.nets.is_empty() {
        for _ in 0..rng.gen_range(0..24) {
            let dir = if rng.gen_bool(0.5) { PortDir::Input } else { PortDir::Output };
            let net = NetId(rng.gen_range(0..m.nets.len() as u32));
            m.ports.push(Port { name: name(&mut rng, &mut seen), dir, net });
        }
    }
    m
}

#[test]
fn synthetic_modules_with_adversarial_names_intern_identically() {
    let lib = CellLibrary::syn40();
    for seed in 0..SYNTHETIC_CASES {
        assert_equivalent(&synthetic_module(&lib, 9_000 + seed), &format!("synthetic seed {seed}"));
    }
    // The degenerate shapes: no names at all, and only the `top` group.
    assert_equivalent(&Module { groups: vec![], ..Module::default() }, "empty module");
    assert_equivalent(&Module::new("bare"), "bare module");
}

/// A bare builder grown from its minimum capacity past 2¹⁷ distinct
/// symbols (many regrowths of the index) assigns the oracle's ids and
/// freezes to the oracle's arena.
#[test]
fn builder_grows_from_minimum_capacity_identically() {
    const DISTINCT: usize = (1 << 17) + 4_321;
    let mut rng = seeded_rng(17);
    let mut got = InternerBuilder::new();
    let mut want = reference::InternerBuilder::new();
    assert!(got.is_empty());
    let mut firsts = Vec::new();
    let mut strings: Vec<String> = Vec::new();
    let mut fresh = 0usize;
    while want.len() < DISTINCT {
        let s = if !strings.is_empty() && rng.gen_bool(0.3) {
            strings[rng.gen_range(0..strings.len())].clone()
        } else {
            fresh += 1;
            let k = fresh;
            match k % 4 {
                0 => format!("s{k}"),
                1 => format!("prefix08/{k}"),
                2 => format!("{}{k}", UTF8[k % UTF8.len()]),
                _ => format!("{k:x}").repeat(1 + k % 3),
            }
        };
        let before = want.len();
        let (g, w) = (got.intern(&s), want.intern(&s));
        assert_eq!(g.index(), w.index(), "symbol id of {s:?}");
        assert_eq!(got.len(), want.len(), "distinct count after {s:?}");
        if want.len() > before {
            firsts.push((g, w));
            strings.push(s);
        }
    }
    let (got, want) = (got.freeze(), want.freeze());
    assert_eq!(got.len(), want.len());
    assert_eq!(got.heap_bytes(), want.heap_bytes());
    for (g, w) in firsts {
        assert_eq!(got.resolve(g), want.resolve(w), "symbol {}", w.index());
    }
}
