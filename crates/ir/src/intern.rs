//! Symbol interning: the shared name layer of the compiled trinity.
//!
//! Compiled artifacts outlive the module they were lowered from, so
//! until this layer existed every one of them cloned owned `String`
//! name tables out of the netlist — `CompiledSta` alone carried a
//! per-net, a per-instance *and* a per-instance-group clone, which is
//! three `String`s per element of a macro that the scale tier grows to
//! 10⁵–10⁶ nets. Interning replaces those tables with 4-byte
//! [`Symbol`]s resolved lazily against one shared, immutable
//! [`Interner`]: the bytes of every distinct name are stored exactly
//! once, in one arena, behind one `Arc` that the lowering and all
//! downstream programs hand around for free.
//!
//! The split is deliberate:
//!
//! * [`InternerBuilder`] — mutable and deduplicating, used only while
//!   [`Symbols::from_module`] walks the module once. Its index is keyed
//!   into the arena itself: an open-addressing table of `u32` symbol
//!   ids plus one Fx-style `u32` hash per symbol, so no name is stored
//!   twice even while building (the index owns no key strings), and
//!   the build is pre-sized from the module's name counts and bytes;
//! * [`Interner`] — frozen, resolve-only: a contiguous byte arena plus
//!   an end-offset table, so its retained memory is exactly
//!   `Σ unique name bytes + 4 bytes per symbol` with no hash-map
//!   overhead surviving the build.
//!
//! [`Symbols`] is the module-shaped view: per-net / per-instance /
//! per-group symbol tables (each an `Arc` slice, shared rather than
//! cloned between the lowering and the simulation, timing and power
//! programs) plus the group *parent* table that lets the power
//! breakdown reconstruct full hierarchical group paths without storing
//! a single path string per instance.

use std::sync::Arc;

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

    /// Rebuild a symbol from its dense id. Crate-internal: only the
    /// artifact decoder constructs symbols this way, and it validates
    /// every id against the decoded interner before handing them out.
    pub(crate) fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

/// Multiplier of the Fx-style name hash (the 64-bit constant of
/// rustc's `FxHasher`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style hash of a name: fold the bytes in little-endian 8-byte
/// chunks (the zero-padded tail and then the length last), each step
/// `(h.rotl(5) ^ chunk) * FX_SEED`, and keep the well-mixed high half
/// of the final product. Names are short ASCII paths that differ in a
/// few trailing digits, which this separates at one multiply per
/// chunk; no hashing crate is needed.
fn fx_hash(s: &str) -> u32 {
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    let mut chunks = s.as_bytes().chunks_exact(8);
    let mut h = 0u64;
    for chunk in &mut chunks {
        h = step(h, u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(tail));
    }
    (step(h, s.len() as u64) >> 32) as u32
}

/// Empty slot of the builder's open-addressing index.
const EMPTY: u32 = u32::MAX;

/// Smallest index the builder allocates (a power of two).
const MIN_SLOTS: usize = 16;

/// Mutable, deduplicating interner used while names are collected.
/// [`InternerBuilder::freeze`] discards the lookup index and returns
/// the compact resolve-only [`Interner`].
///
/// The index is keyed into the arena itself: an open-addressing table
/// of `u32` symbol ids (linear probing, load ≤ ½) plus one `u32` hash
/// per symbol, which filters probes before any string comparison and
/// lets the table regrow without rehashing a single name. No name is
/// ever stored twice, not even while building.
#[derive(Debug)]
pub struct InternerBuilder {
    buf: String,
    ends: Vec<u32>,
    /// Hash of each symbol's string, by symbol id.
    hashes: Vec<u32>,
    /// Symbol id per slot, or `EMPTY`; the length is a power of two.
    slots: Vec<u32>,
}

impl Default for InternerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl InternerBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty builder with room for `symbols` distinct names of
    /// `bytes` total length before anything regrows.
    fn with_capacity(symbols: usize, bytes: usize) -> Self {
        InternerBuilder {
            buf: String::with_capacity(bytes),
            ends: Vec::with_capacity(symbols),
            hashes: Vec::with_capacity(symbols),
            slots: vec![EMPTY; (2 * symbols).next_power_of_two().max(MIN_SLOTS)],
        }
    }

    /// Intern `s`, returning the existing symbol if the exact string
    /// was interned before (dedup is by full string equality).
    ///
    /// # Panics
    ///
    /// Panics if the arena would pass 4 GiB of name bytes or the
    /// builder would hold more than `u32::MAX - 1` symbols: offsets and
    /// symbol ids are `u32`, and a silent wrap would corrupt
    /// [`Interner::resolve`].
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = fx_hash(s);
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let id = self.slots[pos];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && self.str_of(id as usize) == s {
                return Symbol(id);
            }
            pos = (pos + 1) & mask;
        }
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("interner overflow: more than u32::MAX - 1 distinct names");
        self.buf.push_str(s);
        let end = u32::try_from(self.buf.len()).expect("interner overflow: more than 4 GiB of name bytes");
        self.ends.push(end);
        self.hashes.push(hash);
        self.slots[pos] = id;
        if 2 * self.ends.len() > self.slots.len() {
            self.grow();
        }
        Symbol(id)
    }

    /// The string interned as symbol id `i`.
    fn str_of(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    /// Double the index, re-placing every symbol by its stored hash.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; 2 * self.slots.len()];
        let mask = slots.len() - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut pos = hash as usize & mask;
            while slots[pos] != EMPTY {
                pos = (pos + 1) & mask;
            }
            slots[pos] = id as u32;
        }
        self.slots = slots;
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Freeze into the compact resolve-only [`Interner`], dropping the
    /// build-time lookup index.
    pub fn freeze(self) -> Interner {
        Interner { buf: self.buf.into_boxed_str(), ends: self.ends.into_boxed_slice() }
    }
}

/// A frozen string arena: resolve-only, immutable, cheaply shared via
/// `Arc` between the lowering and every compiled artifact built from
/// it. Retained heap is `buf` (every distinct name's bytes, once) plus
/// one `u32` end offset per symbol.
#[derive(Debug)]
pub struct Interner {
    buf: Box<str>,
    ends: Box<[u32]>,
}

impl Interner {
    /// Rebuild a frozen interner from its raw arena and offset table.
    /// Crate-internal: the artifact decoder is the only caller, and it
    /// has already checked the offsets are monotone char boundaries.
    pub(crate) fn from_parts(buf: String, ends: Vec<u32>) -> Interner {
        Interner { buf: buf.into_boxed_str(), ends: ends.into_boxed_slice() }
    }

    /// The raw byte arena (artifact encoder only).
    pub(crate) fn buf(&self) -> &str {
        &self.buf
    }

    /// The raw end-offset table (artifact encoder only).
    pub(crate) fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The string a symbol stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by the builder this interner
    /// was frozen from.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if the interner holds no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Retained heap bytes: the byte arena plus the offset table. This
    /// is the number the scale-tier bench compares against the owned
    /// `String`-table baseline.
    pub fn heap_bytes(&self) -> usize {
        self.buf.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

/// Sentinel for "no parent group" in [`Symbols::group_parent`] (the
/// group is a hierarchy root such as `top` or a top-level head).
const NO_PARENT: u32 = u32::MAX;

/// The interned name tables of one module: per-net, per-instance and
/// per-group symbols over one shared [`Interner`].
///
/// Built once per [`Lowering`](crate::Lowering) (or standalone via
/// [`Symbols::from_module`]) and handed to every compiled artifact —
/// engine `Program`, `CompiledSta`, `CompiledPower` — as `Arc` handles,
/// so a clone is a few reference-count bumps, never a table copy, and
/// no compiled artifact owns a per-net or per-instance `String` again.
#[derive(Debug, Clone)]
pub struct Symbols {
    pub(crate) interner: Arc<Interner>,
    /// Net name per dense net slot.
    pub(crate) net_syms: Arc<[Symbol]>,
    /// Instance name per instance index.
    pub(crate) inst_syms: Arc<[Symbol]>,
    /// Group id per instance index.
    pub(crate) inst_group: Arc<[u32]>,
    /// Full hierarchical group path per group id (`"regs/bank0"`).
    pub(crate) group_syms: Arc<[Symbol]>,
    /// Top-level head of each group path (`"regs"`), matching the
    /// reference power analyzer's breakdown keys.
    pub(crate) group_head_syms: Arc<[Symbol]>,
    /// Path-tree node per group id (see `node_*` below).
    pub(crate) group_node: Arc<[u32]>,
    /// The hierarchical path tree: one node per distinct group path
    /// *and per prefix of one* (`"regs/bank0"` contributes `"regs"` and
    /// `"regs/bank0"` even when only the latter was pushed as a group).
    /// Parents always precede children, so a single reverse pass rolls
    /// subtree aggregates up the hierarchy.
    pub(crate) node_syms: Arc<[Symbol]>,
    /// Parent node per node; `NO_PARENT` for hierarchy roots (the
    /// roots are exactly the top-level heads).
    pub(crate) node_parent: Arc<[u32]>,
    /// Boundary-port symbols, sorted by port name — the shared lookup
    /// table behind [`Symbols::port_net`], so simulation backends stop
    /// building per-executor `HashMap<String, NetId>` port tables.
    pub(crate) port_syms: Arc<[Symbol]>,
    /// Net slot bound to each entry of `port_syms` (same order).
    pub(crate) port_nets: Arc<[u32]>,
}

impl Symbols {
    /// Intern every net, instance and group name of `module` in one
    /// pass. Group heads (the path segment before the first `/`) and
    /// the per-group parent links are derived here, while the
    /// deduplicating builder index is still alive.
    ///
    /// # Panics
    ///
    /// Panics if the module's distinct names overflow the `u32`
    /// offsets or ids of the arena (see [`InternerBuilder::intern`]).
    pub fn from_module(module: &Module) -> Symbols {
        // Size the index and arena for every net, instance, port and
        // group name once: the bulk names are distinct, so the build
        // never regrows on a generated macro (repeated group paths and
        // their prefixes stay well inside the load-factor headroom).
        let names = module.nets.len() + module.instances.len() + module.ports.len() + module.groups.len();
        let name_bytes = module.nets.iter().map(|n| n.name.len()).sum::<usize>()
            + module.instances.iter().map(|i| i.name.len()).sum::<usize>()
            + module.ports.iter().map(|p| p.name.len()).sum::<usize>()
            + module.groups.iter().map(String::len).sum::<usize>();
        let mut b = InternerBuilder::with_capacity(names, name_bytes);
        let net_syms: Arc<[Symbol]> = module.nets.iter().map(|n| b.intern(&n.name)).collect();
        let inst_syms: Arc<[Symbol]> = module.instances.iter().map(|i| b.intern(&i.name)).collect();
        let inst_group: Arc<[u32]> = module.instances.iter().map(|i| i.group.0).collect();

        let mut group_syms = Vec::with_capacity(module.groups.len());
        let mut group_head_syms = Vec::with_capacity(module.groups.len());
        let mut group_node = Vec::with_capacity(module.groups.len());
        // Path tree keyed by full-path symbol (a dense node id per
        // symbol id, `NO_NODE` where the symbol has no node yet):
        // duplicate-named groups share one node, and every `/`-prefix
        // gets a node of its own (created before its children, so node
        // ids are topologically ordered parents-first).
        const NO_NODE: u32 = u32::MAX;
        let mut node_of: Vec<u32> = Vec::new();
        let mut node_syms: Vec<Symbol> = Vec::new();
        let mut node_parent: Vec<u32> = Vec::new();
        for name in &module.groups {
            let sym = b.intern(name);
            let mut node = node_of.get(sym.index()).copied().unwrap_or(NO_NODE);
            if node == NO_NODE {
                // First time this path is seen: intern its `/`-prefixes
                // in order (the first one is the head, the last the path
                // itself), creating a node for each that lacks one. A
                // path seen before has all of these already, so skipping
                // them creates no symbol and keeps first-occurrence order.
                let mut parent = NO_PARENT;
                let bounds = name.match_indices('/').map(|(i, _)| i).chain(std::iter::once(name.len()));
                for end in bounds {
                    let prefix = if end == name.len() { sym } else { b.intern(&name[..end]) };
                    if node_of.len() <= prefix.index() {
                        node_of.resize(b.len(), NO_NODE);
                    }
                    node = node_of[prefix.index()];
                    if node == NO_NODE {
                        node = node_syms.len() as u32;
                        node_of[prefix.index()] = node;
                        node_syms.push(prefix);
                        node_parent.push(parent);
                    }
                    parent = node;
                }
            }
            // The head (the segment before the first `/`) is the root
            // of the node's parent chain.
            let mut root = node;
            while node_parent[root as usize] != NO_PARENT {
                root = node_parent[root as usize];
            }
            group_syms.push(sym);
            group_head_syms.push(node_syms[root as usize]);
            group_node.push(node);
        }

        // Boundary ports, sorted by name once at build time so every
        // later lookup is an allocation-free binary search against the
        // shared table.
        let mut port_order: Vec<usize> = (0..module.ports.len()).collect();
        port_order.sort_by(|&a, &b| module.ports[a].name.cmp(&module.ports[b].name));
        let port_syms: Arc<[Symbol]> = port_order.iter().map(|&i| b.intern(&module.ports[i].name)).collect();
        let port_nets: Arc<[u32]> = port_order.iter().map(|&i| module.ports[i].net.index() as u32).collect();

        Symbols {
            interner: Arc::new(b.freeze()),
            net_syms,
            inst_syms,
            inst_group,
            group_syms: group_syms.into(),
            group_head_syms: group_head_syms.into(),
            group_node: group_node.into(),
            node_syms: node_syms.into(),
            node_parent: node_parent.into(),
            port_syms,
            port_nets,
        }
    }

    /// The shared interner every symbol here resolves against.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Resolve any symbol produced by this table's interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Number of net slots.
    pub fn net_count(&self) -> usize {
        self.net_syms.len()
    }

    /// Number of instances.
    pub fn inst_count(&self) -> usize {
        self.inst_syms.len()
    }

    /// Number of groups (hierarchy nodes, not just heads).
    pub fn group_count(&self) -> usize {
        self.group_syms.len()
    }

    /// Interned name of net slot `slot`.
    pub fn net_sym(&self, slot: usize) -> Symbol {
        self.net_syms[slot]
    }

    /// Name of net slot `slot`.
    pub fn net_name(&self, slot: usize) -> &str {
        self.resolve(self.net_syms[slot])
    }

    /// Interned name of instance `inst`.
    pub fn inst_sym(&self, inst: usize) -> Symbol {
        self.inst_syms[inst]
    }

    /// Name of instance `inst`.
    pub fn inst_name(&self, inst: usize) -> &str {
        self.resolve(self.inst_syms[inst])
    }

    /// Group id of instance `inst`.
    pub fn group_of(&self, inst: usize) -> u32 {
        self.inst_group[inst]
    }

    /// Interned full path of group `gid` (e.g. `"regs/bank0"`).
    pub fn group_sym(&self, gid: u32) -> Symbol {
        self.group_syms[gid as usize]
    }

    /// Full hierarchical path of group `gid`.
    pub fn group_name(&self, gid: u32) -> &str {
        self.resolve(self.group_syms[gid as usize])
    }

    /// Interned top-level head of group `gid` (e.g. `"regs"`) — the
    /// key the power breakdown aggregates by.
    pub fn group_head_sym(&self, gid: u32) -> Symbol {
        self.group_head_syms[gid as usize]
    }

    /// The path-tree node carrying group `gid`'s full path.
    pub fn group_node(&self, gid: u32) -> u32 {
        self.group_node[gid as usize]
    }

    /// Number of nodes in the hierarchical path tree (distinct full
    /// paths plus every prefix of one).
    pub fn node_count(&self) -> usize {
        self.node_syms.len()
    }

    /// Interned full path of path-tree node `node`.
    pub fn node_sym(&self, node: u32) -> Symbol {
        self.node_syms[node as usize]
    }

    /// Full path of path-tree node `node`.
    pub fn node_name(&self, node: u32) -> &str {
        self.resolve(self.node_syms[node as usize])
    }

    /// Parent of path-tree node `node`, or `None` for hierarchy roots.
    /// Parent node ids are always smaller than their children's, so a
    /// reverse iteration over `0..node_count()` visits children before
    /// parents (the rollup order `CompiledPower::by_path_pj` relies
    /// on).
    pub fn node_parent(&self, node: u32) -> Option<u32> {
        let p = self.node_parent[node as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// Number of boundary ports.
    pub fn port_count(&self) -> usize {
        self.port_syms.len()
    }

    /// Boundary port `i` in name order: its interned name and the net
    /// slot it is bound to.
    pub fn port(&self, i: usize) -> (Symbol, u32) {
        (self.port_syms[i], self.port_nets[i])
    }

    /// Net slot bound to the boundary port `name`, by binary search
    /// over the shared sorted port table — no per-caller name map, no
    /// allocation. This is the lookup the simulation backends'
    /// `net_of` helpers ride.
    pub fn port_net(&self, name: &str) -> Option<u32> {
        self.port_syms.binary_search_by(|&s| self.resolve(s).cmp(name)).ok().map(|i| self.port_nets[i])
    }

    /// Retained heap bytes of the symbol tables *plus* the shared
    /// interner (counted once — every artifact holding this `Symbols`
    /// shares the same allocations).
    pub fn heap_bytes(&self) -> usize {
        let sym = std::mem::size_of::<Symbol>();
        self.net_syms.len() * sym
            + self.inst_syms.len() * sym
            + self.inst_group.len() * std::mem::size_of::<u32>()
            + self.group_syms.len() * sym
            + self.group_head_syms.len() * sym
            + self.group_node.len() * std::mem::size_of::<u32>()
            + self.node_syms.len() * sym
            + self.node_parent.len() * std::mem::size_of::<u32>()
            + self.port_syms.len() * sym
            + self.port_nets.len() * std::mem::size_of::<u32>()
            + self.interner.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellLibrary;

    #[test]
    fn intern_round_trips_and_dedups() {
        let mut b = InternerBuilder::new();
        let a1 = b.intern("alpha");
        let beta = b.intern("beta");
        let a2 = b.intern("alpha");
        let empty = b.intern("");
        assert_eq!(a1, a2, "equal strings must intern to one symbol");
        assert_ne!(a1, beta);
        assert_eq!(b.len(), 3, "dedup: three distinct strings");
        let frozen = b.freeze();
        assert_eq!(frozen.resolve(a1), "alpha");
        assert_eq!(frozen.resolve(beta), "beta");
        assert_eq!(frozen.resolve(empty), "");
        assert_eq!(frozen.len(), 3);
        assert_eq!(frozen.heap_bytes(), "alphabeta".len() + 3 * 4);
    }

    #[test]
    fn colliding_hashes_still_dedup_by_string() {
        // Birthday search for two distinct equal-length names with one
        // hash: the probe filter must fall through to the string compare.
        let mut seen = std::collections::HashMap::new();
        let (a, c) = (0u32..)
            .map(|i| format!("net{i:07}"))
            .find_map(|s| seen.insert(fx_hash(&s), s.clone()).map(|prev| (prev, s)))
            .expect("a 32-bit hash collides long before 2^32 names");
        assert_eq!((fx_hash(&a), a.len()), (fx_hash(&c), c.len()));
        let mut b = InternerBuilder::new();
        let (sa, sc) = (b.intern(&a), b.intern(&c));
        assert_ne!(sa, sc, "{a:?} and {c:?} collide in hash only");
        assert_eq!((b.intern(&a), b.intern(&c)), (sa, sc));
        let frozen = b.freeze();
        assert_eq!((frozen.resolve(sa), frozen.resolve(sc)), (a.as_str(), c.as_str()));
    }

    #[test]
    fn symbols_mirror_module_names() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        b.push_group("regs");
        b.push_group("bank0");
        let q = b.dff(a);
        b.pop_group();
        b.pop_group();
        b.output("q", q);
        let m = b.finish();
        let syms = Symbols::from_module(&m);
        assert_eq!(syms.net_count(), m.net_count());
        assert_eq!(syms.inst_count(), m.instance_count());
        for (i, net) in m.nets.iter().enumerate() {
            assert_eq!(syms.net_name(i), net.name);
        }
        for (i, inst) in m.instances.iter().enumerate() {
            assert_eq!(syms.inst_name(i), inst.name);
            assert_eq!(syms.group_of(i), inst.group.0);
            assert_eq!(syms.group_name(inst.group.0), m.group_name(inst.group));
        }
    }

    #[test]
    fn path_tree_follows_prefixes_and_synthesizes_missing_ancestors() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        let g_regs = b.push_group("regs");
        let g_bank = b.push_group("bank0");
        let q = b.dff(a);
        b.pop_group();
        b.pop_group();
        // A slash inside one push: `mem/word0` has no explicit `mem`
        // group — the tree must synthesize the prefix node.
        let g_word = b.push_group("mem/word0");
        let y = b.not(q);
        b.pop_group();
        b.output("y", y);
        let m = b.finish();
        let syms = Symbols::from_module(&m);

        let top = syms.group_node(0);
        assert_eq!(syms.node_parent(top), None, "top is a root");
        let regs = syms.group_node(g_regs.0);
        let bank = syms.group_node(g_bank.0);
        assert_eq!(syms.node_parent(regs), None, "`regs` is a root (no `top/` prefix)");
        assert_eq!(syms.node_parent(bank), Some(regs), "`regs/bank0` hangs under `regs`");
        assert!(regs < bank, "parents precede children");
        let word = syms.group_node(g_word.0);
        let mem = syms.node_parent(word).expect("synthesized `mem` prefix node");
        assert_eq!(syms.node_name(mem), "mem");
        assert_eq!(syms.node_parent(mem), None);
        assert_eq!(syms.node_name(word), "mem/word0");

        assert_eq!(syms.resolve(syms.group_head_sym(g_bank.0)), "regs");
        assert_eq!(syms.resolve(syms.group_head_sym(g_word.0)), "mem");
        assert_eq!(syms.resolve(syms.group_head_sym(0)), "top");
    }

    #[test]
    fn port_lookup_matches_module_ports() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let xs = b.input_bus("x", 4);
        let a = b.input("a");
        let y = b.not(a);
        b.output_bus("z", &xs);
        b.output("y", y);
        let m = b.finish();
        let syms = Symbols::from_module(&m);
        assert_eq!(syms.port_count(), m.ports.len());
        for p in &m.ports {
            assert_eq!(syms.port_net(&p.name), Some(p.net.index() as u32), "port `{}`", p.name);
        }
        assert_eq!(syms.port_net("nonexistent"), None);
    }

    #[test]
    fn clones_share_the_interner() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let syms = Symbols::from_module(&m);
        let clone = syms.clone();
        assert!(Arc::ptr_eq(syms.interner(), clone.interner()), "clone must share, not copy");
    }
}
