//! The per-statement reuse table: do the work once.
//!
//! The plan interpreter executes what the plan says, node by node, so
//! work a statement spells out twice runs twice, and work inside a loop
//! body runs once per iteration even when nothing it reads changes.
//! [`ReuseTable::analyze`] finds that work on the root call of
//! [`Executor::execute`](crate::Executor::execute) and gives the nodes
//! involved a *slot*; the executor fills a slot the first time such a
//! node runs and serves later executions from it:
//!
//! * **common sub-plans** — structurally equal, deterministic sub-plans
//!   share one result slot;
//! * **loop invariants** — inside an ITERATE or recursive-CTE body, a
//!   maximal sub-plan that does not read the loop's working table keeps
//!   its result; when it is the build (right) input of a join, the join
//!   keeps the built hash table instead.
//!
//! A kept value is valid for exactly the working-table bindings it was
//! computed under: the slot lists the working tables its sub-plan reads
//! from outside, an entry records their binding ids
//! ([`ExecContext::binding_id`]), and popping a binding drops every entry
//! that names it. Every entry goes when the outermost loop around the
//! slot's last user ends, or with the statement when that user is in no
//! loop. Base tables cannot change underneath an entry because the context
//! takes one snapshot per table per statement.
//!
//! Kept values are charged to the statement's governor while they are
//! held, on top of the executor's frame accounting; when the budget has
//! no room for one, it is simply not kept. When a node runs out of budget
//! while the table holds memory, the table gives all of it back for good
//! ([`ReuseTable::surrender`]) and the node runs again: a statement that
//! fits its budget as written fits it with the table.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use hylite_common::Chunk;
use hylite_expr::ScalarExpr;
use hylite_planner::LogicalPlan;

use crate::context::ExecContext;
use crate::join::JoinBuild;

/// What the analysis decided for one plan node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct NodeRole {
    /// Slot this node's result is kept in and served from.
    pub result: Option<usize>,
    /// `Join` only: slot for the built right side.
    pub build: Option<usize>,
}

enum Kept {
    Result(Vec<Chunk>),
    Build(Arc<JoinBuild>),
}

struct Entry {
    kept: Kept,
    /// Binding ids of the slot's `reads` at the time the value was computed.
    bindings: Vec<u64>,
    /// Bytes reserved from the governor for holding the value.
    charged: u64,
}

struct Slot {
    /// Working tables the sub-plan reads from outside itself.
    reads: Vec<String>,
    entry: Option<Entry>,
    /// Plan node whose execution last filled the slot.
    owner: usize,
    /// Loop node after whose end no user of the slot runs again (`NONE`:
    /// held until the statement ends).
    until: usize,
    hits: u64,
    /// A join's built right side rather than a node's result.
    holds_build: bool,
}

impl Slot {
    /// Let go of the kept value and its governor charge.
    fn drop_entry(&mut self, ctx: &ExecContext) {
        if let Some(entry) = self.entry.take() {
            ctx.governor().release(entry.charged);
        }
    }
}

/// Roles by plan node plus the slots they point at. Empty (and free to
/// consult) for a plan with no loop and no repeated sub-plan.
#[derive(Default)]
pub(crate) struct ReuseTable {
    roles: HashMap<usize, NodeRole>,
    slots: Vec<Slot>,
}

impl ReuseTable {
    /// True when no node has a role: the executor skips every lookup.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// The role of a plan node, if it has one.
    pub fn role(&self, plan: &LogicalPlan) -> Option<&NodeRole> {
        self.roles.get(&plan.node_id())
    }

    fn current_bindings(&self, slot: usize, ctx: &ExecContext) -> Vec<u64> {
        let reads = &self.slots[slot].reads;
        reads.iter().map(|name| ctx.binding_id(name)).collect()
    }

    fn valid_entry(&mut self, slot: usize, ctx: &ExecContext) -> Option<&Kept> {
        let bindings = self.current_bindings(slot, ctx);
        let slot = &mut self.slots[slot];
        let entry = slot.entry.as_ref().filter(|e| e.bindings == bindings)?;
        slot.hits += 1;
        Some(&entry.kept)
    }

    /// The kept result of `slot` if it was computed under the current
    /// bindings, and the node that computed it. Counts as a hit.
    pub fn result(&mut self, slot: usize, ctx: &ExecContext) -> Option<(Vec<Chunk>, usize)> {
        let owner = self.slots[slot].owner;
        match self.valid_entry(slot, ctx)? {
            Kept::Result(chunks) => Some((chunks.clone(), owner)),
            Kept::Build(_) => None,
        }
    }

    /// The kept join build of `slot`, as [`ReuseTable::result`]. Also
    /// returns the slot's hit count so far, for the join's profile span.
    pub fn build(&mut self, slot: usize, ctx: &ExecContext) -> Option<(Arc<JoinBuild>, u64)> {
        let build = match self.valid_entry(slot, ctx)? {
            Kept::Build(build) => Arc::clone(build),
            Kept::Result(_) => return None,
        };
        Some((build, self.slots[slot].hits))
    }

    /// Keep `chunks` as the result of `slot`, computed by node `owner`
    /// under the current bindings.
    pub fn keep_result(&mut self, slot: usize, owner: usize, chunks: &[Chunk], ctx: &ExecContext) {
        let bytes = crate::util::heap_bytes(chunks);
        self.keep(slot, owner, Kept::Result(chunks.to_vec()), bytes, ctx);
    }

    /// Keep a join's built right side in `slot`.
    pub fn keep_build(
        &mut self,
        slot: usize,
        owner: usize,
        build: &Arc<JoinBuild>,
        ctx: &ExecContext,
    ) {
        self.keep(
            slot,
            owner,
            Kept::Build(Arc::clone(build)),
            build.heap_bytes(),
            ctx,
        );
    }

    fn keep(&mut self, slot: usize, owner: usize, kept: Kept, bytes: u64, ctx: &ExecContext) {
        // A table that surrendered keeps nothing more.
        if self.roles.is_empty() {
            return;
        }
        let bindings = self.current_bindings(slot, ctx);
        let slot = &mut self.slots[slot];
        slot.drop_entry(ctx);
        // The budget decides: a value it has no room for is not kept.
        if ctx.governor().budget().try_reserve(bytes) {
            slot.owner = owner;
            slot.entry = Some(Entry {
                kept,
                bindings,
                charged: bytes,
            });
        }
    }

    /// A working-table binding ended: drop what was computed under it.
    pub fn binding_popped(&mut self, binding: u64, ctx: &ExecContext) {
        for slot in &mut self.slots {
            if slot
                .entry
                .as_ref()
                .is_some_and(|e| e.bindings.contains(&binding))
            {
                slot.drop_entry(ctx);
            }
        }
    }

    /// Loop node `loop_id` ran to its end: drop what was held for it.
    pub fn loop_ended(&mut self, loop_id: usize, ctx: &ExecContext) {
        for slot in &mut self.slots {
            if slot.until == loop_id {
                slot.drop_entry(ctx);
            }
        }
    }

    /// The statement ran out of budget: give back everything held and
    /// take every role away, so the rest of the plan runs as written.
    /// Returns whether any memory was given back.
    pub fn surrender(&mut self, ctx: &ExecContext) -> bool {
        let mut freed = false;
        for slot in &mut self.slots {
            freed |= slot.entry.as_ref().is_some_and(|e| e.charged > 0);
            slot.drop_entry(ctx);
        }
        self.roles.clear();
        freed
    }

    /// The statement ended: release every charge, report the hits (to the
    /// registry, and per owning node to the profile), forget the plan.
    pub fn finish(&mut self, ctx: &mut ExecContext) {
        if self.slots.is_empty() {
            return;
        }
        let (mut results, mut builds) = (0, 0);
        for slot in &mut self.slots {
            slot.drop_entry(ctx);
            if slot.holds_build {
                builds += slot.hits;
            } else if slot.hits > 0 {
                results += slot.hits;
                ctx.profile_note_node(slot.owner, "reused", slot.hits);
            }
        }
        for (name, hits) in [
            ("exec.subplan_reuse_hits", results),
            ("exec.join_build_reuse_hits", builds),
        ] {
            if hits > 0 {
                ctx.metrics().counter(name).add(hits);
            }
        }
        *self = ReuseTable::default();
    }

    /// Decide which nodes of `root` keep or share what. One walk over the
    /// plan; everything after it runs only when the walk found a loop or
    /// two nodes of the same shape.
    pub fn analyze(root: &LogicalPlan) -> ReuseTable {
        let mut walk = Walk::default();
        walk.visit(root, NONE, 0, false);
        if walk.too_many_names || !(walk.has_loop || walk.has_twins()) {
            return ReuseTable::default();
        }
        Analysis::new(walk).run()
    }
}

const NONE: usize = usize::MAX;

/// Per-node facts gathered by the walk, in execution (pre-)order.
struct Node<'a> {
    plan: &'a LogicalPlan,
    parent: usize,
    /// Shape hash: equal plans hash equally, most unequal ones do not.
    hash: u64,
    /// Working tables read below this node and not bound below it, as bits
    /// over `Walk::names`.
    reads: u64,
    /// Bit of the working table of the nearest enclosing loop body
    /// (0 outside every loop body).
    scope: u64,
    /// Whether this node is the root of a loop body (step or stop).
    body_root: bool,
    /// No `SystemScan` below: executing it twice gives the same rows.
    deterministic: bool,
    /// Join only: index of the right input.
    right: usize,
    /// Nodes in this sub-plan, itself included: it occupies
    /// `index..index + size` of the pre-order.
    size: usize,
}

#[derive(Default)]
struct Walk<'a> {
    nodes: Vec<Node<'a>>,
    names: Vec<&'a str>,
    too_many_names: bool,
    has_loop: bool,
}

impl<'a> Walk<'a> {
    fn bit(&mut self, name: &'a str) -> u64 {
        let index = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        if index >= 64 {
            self.too_many_names = true;
            return 0;
        }
        1 << index
    }

    fn visit(
        &mut self,
        plan: &'a LogicalPlan,
        parent: usize,
        scope: u64,
        body_root: bool,
    ) -> usize {
        let index = self.nodes.len();
        self.nodes.push(Node {
            plan,
            parent,
            hash: 0,
            reads: 0,
            scope,
            body_root,
            deterministic: !matches!(plan, LogicalPlan::SystemScan { .. }),
            right: NONE,
            size: 1,
        });
        let mut hasher = DefaultHasher::new();
        plan.op_name().hash(&mut hasher);
        let mut reads = 0;
        // The working table a loop node binds for its body: every child
        // after the first (`init`) runs under that binding.
        let binds = match plan {
            LogicalPlan::Iterate { .. } => self.bit("iterate"),
            LogicalPlan::RecursiveCte { name, .. } => self.bit(name),
            LogicalPlan::WorkingTable { name, .. } => {
                name.hash(&mut hasher);
                reads = self.bit(name);
                0
            }
            LogicalPlan::TableScan {
                table, projection, ..
            } => {
                table.hash(&mut hasher);
                projection.hash(&mut hasher);
                0
            }
            LogicalPlan::Project { exprs, .. } => {
                // Which columns pass through tells most projections apart.
                for e in exprs {
                    match e {
                        ScalarExpr::Column { index, .. } => index.hash(&mut hasher),
                        other => std::mem::discriminant(other).hash(&mut hasher),
                    }
                }
                0
            }
            LogicalPlan::Aggregate { aggregates, .. } => {
                aggregates.len().hash(&mut hasher);
                0
            }
            _ => 0,
        };
        self.has_loop |= binds != 0;
        for (i, child) in plan.children().enumerate() {
            let body = binds != 0 && i > 0;
            let c = self.visit(child, index, if body { binds } else { scope }, body);
            let child = &self.nodes[c];
            child.hash.hash(&mut hasher);
            reads |= if body {
                child.reads & !binds
            } else {
                child.reads
            };
            let deterministic = child.deterministic;
            let node = &mut self.nodes[index];
            node.deterministic &= deterministic;
            if i == 1 && matches!(plan, LogicalPlan::Join { .. }) {
                node.right = c;
            }
        }
        let size = self.nodes.len() - index;
        let node = &mut self.nodes[index];
        node.hash = hasher.finish();
        node.reads = reads;
        node.size = size;
        index
    }

    fn has_twins(&self) -> bool {
        let mut hashes: Vec<u64> = self.nodes.iter().map(|n| n.hash).collect();
        hashes.sort_unstable();
        hashes.windows(2).any(|w| w[0] == w[1])
    }
}

/// Leaves that only hand out shared columns cost nothing to run again.
fn worth_keeping(plan: &LogicalPlan) -> bool {
    !matches!(
        plan,
        LogicalPlan::TableScan { filter: None, .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Empty { .. }
            | LogicalPlan::WorkingTable { .. }
            | LogicalPlan::SystemScan { .. }
    )
}

struct Analysis<'a> {
    nodes: Vec<Node<'a>>,
    names: Vec<&'a str>,
    /// Whether a node may share with an equal one: deterministic, and no
    /// negative zero below.
    shareable: Vec<bool>,
    /// Class of each node: the index of the first node equal to it.
    class: Vec<usize>,
    /// Members per class, by class index.
    count: Vec<usize>,
    /// Result slot per class.
    class_slot: HashMap<usize, usize>,
    table: ReuseTable,
}

impl<'a> Analysis<'a> {
    fn new(walk: Walk<'a>) -> Analysis<'a> {
        let n = walk.nodes.len();
        let mut shareable: Vec<bool> = walk
            .nodes
            .iter()
            .map(|node| node.deterministic && !node.plan.holds_negative_zero())
            .collect();
        // Parents precede children in pre-order.
        for i in (1..n).rev() {
            if !shareable[i] {
                shareable[walk.nodes[i].parent] = false;
            }
        }
        Analysis {
            nodes: walk.nodes,
            names: walk.names,
            shareable,
            class: (0..n).collect(),
            count: vec![1; n],
            class_slot: HashMap::new(),
            table: ReuseTable::default(),
        }
    }

    fn run(mut self) -> ReuseTable {
        self.classify();
        self.share_repeated();
        self.hoist_invariants();
        self.bound_lifetimes();
        self.table
    }

    /// Group shareable nodes into classes of equal plans; a node that is
    /// not shareable neither joins a class nor leads one. Top-down: when
    /// two sub-plans are equal, so are their nodes, pre-order position by
    /// position, and none of those needs comparing again.
    fn classify(&mut self) {
        let mut firsts: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut i = 0;
        while i < self.nodes.len() {
            let node = &self.nodes[i];
            if !self.shareable[i] {
                i += 1;
                continue;
            }
            let twin = firsts
                .get(&node.hash)
                .and_then(|f| f.iter().find(|&&f| self.nodes[f].plan == node.plan));
            match twin {
                Some(&first) => {
                    for k in 0..node.size {
                        let class = self.class[first + k];
                        self.class[i + k] = class;
                        self.count[class] += 1;
                    }
                    i += node.size;
                }
                None => {
                    firsts.entry(node.hash).or_default().push(i);
                    i += 1;
                }
            }
        }
    }

    fn slot(&mut self, reads: u64, holds_build: bool) -> usize {
        let reads = (0..self.names.len())
            .filter(|i| reads & (1 << i) != 0)
            .map(|i| self.names[i].to_owned())
            .collect();
        self.table.slots.push(Slot {
            reads,
            entry: None,
            owner: NONE,
            until: NONE,
            hits: 0,
            holds_build,
        });
        self.table.slots.len() - 1
    }

    fn role(&mut self, node: usize) -> &mut NodeRole {
        let id = self.nodes[node].plan.node_id();
        self.table.roles.entry(id).or_default()
    }

    /// Give every member of `class` the class's result slot.
    fn result_slot(&mut self, class: usize) -> usize {
        if let Some(&slot) = self.class_slot.get(&class) {
            return slot;
        }
        let slot = self.slot(self.nodes[class].reads, false);
        self.class_slot.insert(class, slot);
        for i in class..self.nodes.len() {
            if self.class[i] == class {
                self.role(i).result = Some(slot);
            }
        }
        slot
    }

    /// How many executions of `node`'s parent are served by one
    /// evaluation: a child that occurs no more often than that is never
    /// reached a second time and needs no slot of its own.
    fn parent_coverage(&self, node: usize) -> usize {
        let parent = self.nodes[node].parent;
        if parent == NONE {
            return 0;
        }
        self.count[self.class[parent]]
    }

    /// Repeated sub-plans share one result slot per class.
    fn share_repeated(&mut self) {
        for class in 0..self.nodes.len() {
            let count = self.count[class];
            if self.class[class] != class || count < 2 || !worth_keeping(self.nodes[class].plan) {
                continue;
            }
            let reachable = (class..self.nodes.len())
                .any(|i| self.class[i] == class && self.parent_coverage(i) < count);
            if reachable {
                self.result_slot(class);
            }
        }
    }

    /// Inside a loop body, a maximal sub-plan that does not read the
    /// loop's working table keeps its result for as long as the outer
    /// working tables it does read stay bound; as the right input of a
    /// join it is kept in built form.
    fn hoist_invariants(&mut self) {
        let invariant = |n: &Node| n.scope != 0 && n.deterministic && n.reads & n.scope == 0;
        for i in 0..self.nodes.len() {
            let node = &self.nodes[i];
            if node.scope == 0 || invariant(node) {
                continue;
            }
            // `node` changes with the loop (or must run every time).
            if node.right != NONE && invariant(&self.nodes[node.right]) {
                let slot = self.slot(self.nodes[node.right].reads, true);
                self.role(i).build = Some(slot);
            }
        }
        for i in 0..self.nodes.len() {
            let node = &self.nodes[i];
            if !invariant(node) || !worth_keeping(node.plan) {
                continue;
            }
            // Inside a loop body, so there is a parent.
            let parent = &self.nodes[node.parent];
            let maximal = node.body_root || !invariant(parent);
            let built = parent.right == i && !invariant(parent);
            if maximal && !built {
                self.result_slot(self.class[i]);
            }
        }
    }

    /// A slot is held until the outermost loop around its last user ends.
    /// Users run in pre-order the first time, so the last one writes last.
    fn bound_lifetimes(&mut self) {
        for i in 0..self.nodes.len() {
            let Some(role) = self.table.roles.get(&self.nodes[i].plan.node_id()) else {
                continue;
            };
            let slots = [role.result, role.build];
            let until = self.outermost_loop(i);
            for slot in slots.into_iter().flatten() {
                self.table.slots[slot].until = until;
            }
        }
    }

    /// Node id of the outermost loop that has `node` in its body (`NONE`
    /// if no loop does): once that loop ends, `node` does not run again.
    fn outermost_loop(&self, node: usize) -> usize {
        let mut outermost = NONE;
        let (mut child, mut at) = (node, self.nodes[node].parent);
        while at != NONE {
            let plan = self.nodes[at].plan;
            let is_loop = matches!(
                plan,
                LogicalPlan::Iterate { .. } | LogicalPlan::RecursiveCte { .. }
            );
            // A loop's first child is its `init`, which runs once.
            if is_loop && child != at + 1 {
                outermost = plan.node_id();
            }
            (child, at) = (at, self.nodes[at].parent);
        }
        outermost
    }
}
