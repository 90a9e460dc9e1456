/* Closed-world CCR-EDF slot micro-kernel.
 *
 * Compiled lazily by repro.sim.vector.ckernel and loaded via ctypes.
 * Executes the per-slot pipeline of repro.sim.engine.Simulation for the
 * strict configuration subset the glue admits (periodic RT-connection
 * traffic only, no observer, no drop-late, no faults) and is
 * bit-identical to the oracle for it: the float accumulators advance by
 * the same IEEE-754 double additions in the same order (no
 * reassociation -- never build with -ffast-math), a head's priority is
 * read off the laxity mapping's level-start table the glue derives
 * (repro.core.mapping.level_starts), and grants sweep (priority desc,
 * node asc) with the oracle's break-slot denial and spatial-reuse
 * overlap rules.
 *
 * All state lives in one workspace of 8-byte words handed in by the
 * glue: a header holding the word offset of every field, then the
 * fields in the order of ckernel.WORKSPACE (enum ws_field below).  It
 * carries a message table (the call's carried live messages first, then
 * one row per release), per-connection release calendar columns, and
 * every output the exit fold reads.
 *
 * One entry normally runs the whole call.  When a slot's releases do
 * not fit the message table, the kernel compacts it: rows still live,
 * and every carried row (whatever its state, so rows 0..n_pre-1 stay the
 * glue's carried messages in order), move to the front in row order,
 * the pending plan's transmit and denial rows are remapped, and the
 * heaps are rebuilt from the rows that are left.  The kernel returns
 * before the call ends only with the state of a slot boundary written
 * back, for the glue to act and re-enter:
 *   - RET_ROWS_FULL: the live backlog fills more than half of the table
 *     even after a compaction; the glue grows the buffer;
 *   - RET_LOG_FULL: the late-delivery log is full; the glue drains it.
 * Latencies are counted per (dense connection id, latency) in a table
 * lat_width latencies wide; a delivery whose latency does not fit is
 * logged as a (dense id, latency) pair instead.
 *
 * Kernel scratch, rebuilt at each entry so each slot's work scales
 * with what is queued or due, not with the ring width or the
 * connection count:
 *   - per-node EDF heaps keyed (deadline, msg_id), grown on demand, and
 *     an occupancy mask with bit i set while node i's heap is
 *     non-empty; planning walks its set bits in ascending node order;
 *   - prio_of_lax, the laxity -> priority table filled once per level
 *     from the level-start column, over the laxities a head can reach
 *     in the call (every level start is positive, so laxity <= 0 reads
 *     entry 0, the most urgent level);
 *   - the release wheel: W slots (a power of two above the largest
 *     period, at most 2^16) of connection bitmasks.  A connection's bit
 *     sits in the slot of its next due time modulo W; walking a slot's
 *     bits in ascending connection index is the oracle's (due, attach
 *     order) release order.  A bit whose connection is not due yet (a
 *     first release or a period W or more slots ahead) stays where it
 *     is for a later lap.
 */

#include <stdint.h>
#include <stdlib.h>

/* Message status codes (mirror repro.core.messages.MessageStatus). */
#define ST_PENDING 0
#define ST_IN_TRANSIT 1
#define ST_DELIVERED 2

/* Early returns at a slot boundary (mirror ckernel._RET_*). */
#define RET_ROWS_FULL 1
#define RET_LOG_FULL 2

/* Release wheel size cap: 2^16 slots of ceil(n_conns/64) words each. */
#define WHEEL_MAX_SLOTS ((int64_t)1 << 16)

/* Workspace fields, in the order of ckernel.WORKSPACE (pinned by
 * tests/sim/vector/test_soa.py).  ws[field] is the field's word offset. */
enum ws_field {
    /* int64 scalars in */
    W_N,
    W_END_SLOT,
    W_LIMIT,
    W_RT_LO,
    W_RT_HI,
    W_N_PRE,
    W_N_REL,
    W_N_CONNS,
    W_ID0,
    W_LAT_WIDTH,
    W_ROW_CAP,
    W_LOG_CAP,
    /* int64 scalars in and out: the cursor, the table, the pending plan */
    W_SLOT,
    W_N_ROWS,
    W_N_RELEASED,
    W_MASTER,
    W_PREV_MASTER,
    W_N_REQ,
    W_N_TX,
    W_N_DEN,
    /* int64 scalars out, accumulated over the entries of one call */
    W_BUSY,
    W_PACKETS,
    W_WASTED,
    W_DENIALS,
    W_N_DEL,
    W_N_MISSED,
    W_N_LOG,
    W_N_COMPACTIONS,
    W_COMPACTED,
    W_N_LIVE,
    /* float64 scalars */
    W_SLOT_LENGTH,
    W_GAP,
    W_WALL,
    W_SLOT_TIME,
    W_GAP_TIME,
    /* per node */
    W_TX_ROWS,
    W_DEN_ROWS,
    W_MASTER_COUNT,
    W_HOP_COUNT,
    W_GAP_MATRIX,
    /* per sourced connection */
    W_CONN_NODE,
    W_CONN_SIZE,
    W_CONN_DEADLINE,
    W_CONN_CID,
    W_CONN_LINKS,
    W_CONN_PERIOD,
    W_CONN_STOP,
    W_CONN_DUE,
    /* per dense connection id */
    W_CID_DELIVERED,
    W_CID_MISSED,
    /* per RT priority level below the most urgent */
    W_RT_LEVEL_START,
    /* latency count table: lat_width words per dense connection id */
    W_LAT_COUNTS,
    /* message table */
    W_M_NODE,
    W_M_SIZE,
    W_M_SENT,
    W_M_DEADLINE,
    W_M_CREATED,
    W_M_ID,
    W_M_CID,
    W_M_LINKS,
    W_M_STATUS,
    W_M_COMPLETED,
    W_M_CONN,
    W_LIVE_ROWS,
    /* late-delivery log */
    W_LOG_CID,
    W_LOG_LAT,
    W_NFIELDS
};

#define I64(f) (ws + ws[f])
#define U64(f) ((uint64_t *)(ws + ws[f]))
#define F64(f) ((double *)(ws + ws[f]))

/* The message-table columns a compaction moves, W_M_NODE..W_M_CONN. */
#define ROW_COLUMNS (W_M_CONN - W_M_NODE + 1)

typedef struct {
    int64_t deadline;
    int64_t msg_id;
    int64_t row;
} Ent;

typedef struct {
    Ent *ent;
    int64_t size;
    int64_t cap;
} Heap;

/* (deadline, msg_id) lexicographic compare -- msg_id is globally unique,
 * so the order is total and matches the Python tuple heaps. */
static inline int ent_lt(const Ent *a, const Ent *b) {
    if (a->deadline != b->deadline) {
        return a->deadline < b->deadline;
    }
    return a->msg_id < b->msg_id;
}

/* Returns 0, or -1 when the heap cannot grow. */
static int heap_push(Heap *h, Ent item) {
    if (h->size == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 16;
        Ent *ent = (Ent *)realloc(h->ent, (size_t)cap * sizeof(Ent));
        if (ent == NULL) {
            return -1;
        }
        h->ent = ent;
        h->cap = cap;
    }
    Ent *heap = h->ent;
    int64_t i = h->size++;
    heap[i] = item;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!ent_lt(&heap[i], &heap[parent])) {
            break;
        }
        Ent tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
    return 0;
}

static void heap_pop(Heap *h) {
    Ent *heap = h->ent;
    int64_t n = --h->size;
    if (n == 0) {
        return;
    }
    heap[0] = heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        int64_t r = l + 1;
        int64_t smallest = i;
        if (l < n && ent_lt(&heap[l], &heap[smallest])) {
            smallest = l;
        }
        if (r < n && ent_lt(&heap[r], &heap[smallest])) {
            smallest = r;
        }
        if (smallest == i) {
            return;
        }
        Ent tmp = heap[smallest];
        heap[smallest] = heap[i];
        heap[i] = tmp;
        i = smallest;
    }
}

/* Refill the heaps with the rows of the table not yet delivered and
 * return the occupancy mask; -1 (all bits) when a heap cannot grow.
 * Which delivered entries a heap still held is unobservable: planning
 * pops them before it reads a head. */
static uint64_t fill_heaps(const int64_t *ws, Heap *heaps, int64_t n,
                           int64_t n_rows) {
    const int64_t *m_node = I64(W_M_NODE);
    const int64_t *m_deadline = I64(W_M_DEADLINE);
    const int64_t *m_id = I64(W_M_ID);
    const int64_t *m_status = I64(W_M_STATUS);
    uint64_t occupied = 0;
    for (int64_t i = 0; i < n; i++) {
        heaps[i].size = 0;
    }
    for (int64_t row = 0; row < n_rows; row++) {
        if (m_status[row] == ST_DELIVERED) {
            continue;
        }
        Ent e = {m_deadline[row], m_id[row], row};
        if (heap_push(&heaps[m_node[row]], e) != 0) {
            return ~(uint64_t)0;
        }
        occupied |= (uint64_t)1 << m_node[row];
    }
    return occupied;
}

/* Move the carried rows and the live release rows to the front of the
 * table, in row order, and return how many there are.  live_rows[row]
 * receives each old row's new index (-1 for a dropped row). */
static int64_t compact_rows(int64_t *ws, int64_t n_pre, int64_t n_rows) {
    const int64_t *m_status = I64(W_M_STATUS);
    int64_t *remap = I64(W_LIVE_ROWS);
    int64_t kept = 0;
    for (int64_t row = 0; row < n_rows; row++) {
        if (row >= n_pre && m_status[row] == ST_DELIVERED) {
            remap[row] = -1;
            continue;
        }
        if (kept != row) {
            for (int f = 0; f < ROW_COLUMNS; f++) {
                int64_t *col = ws + ws[W_M_NODE + f];
                col[kept] = col[row];
            }
        }
        remap[row] = kept++;
    }
    return kept;
}

int64_t repro_run_ckernel(int64_t *ws) {
    const int64_t n = *I64(W_N);
    if (n <= 0 || n > 62) {
        return -1;
    }
    const int64_t end = *I64(W_END_SLOT);
    const int64_t limit = *I64(W_LIMIT);
    const int64_t rt_lo = *I64(W_RT_LO);
    const int64_t rt_hi = *I64(W_RT_HI);
    /* Level rt_hi - 1 - k starts at laxity rt_level_start[k]. */
    const int64_t n_lower = rt_hi - rt_lo;
    const int64_t *rt_level_start = I64(W_RT_LEVEL_START);
    const int64_t n_pre = *I64(W_N_PRE);
    const int64_t n_rel = *I64(W_N_REL);
    const int64_t n_conns = *I64(W_N_CONNS);
    const int64_t id0 = *I64(W_ID0);
    const int64_t lat_width = *I64(W_LAT_WIDTH);
    const int64_t row_cap = *I64(W_ROW_CAP);
    const int64_t log_cap = *I64(W_LOG_CAP);
    const double slot_length = *F64(W_SLOT_LENGTH);
    const double *gap_matrix = F64(W_GAP_MATRIX);
    int64_t *master_count = I64(W_MASTER_COUNT);
    int64_t *hop_count = I64(W_HOP_COUNT);
    const int64_t *conn_node = I64(W_CONN_NODE);
    const int64_t *conn_size = I64(W_CONN_SIZE);
    const int64_t *conn_deadline = I64(W_CONN_DEADLINE);
    const int64_t *conn_cid = I64(W_CONN_CID);
    const uint64_t *conn_links = U64(W_CONN_LINKS);
    const int64_t *conn_period = I64(W_CONN_PERIOD);
    const int64_t *conn_stop = I64(W_CONN_STOP);
    int64_t *conn_due = I64(W_CONN_DUE);
    int64_t *cid_delivered = I64(W_CID_DELIVERED);
    int64_t *cid_missed = I64(W_CID_MISSED);
    int64_t *lat_counts = I64(W_LAT_COUNTS);
    int64_t *m_node = I64(W_M_NODE);
    int64_t *m_size = I64(W_M_SIZE);
    int64_t *m_sent = I64(W_M_SENT);
    int64_t *m_deadline = I64(W_M_DEADLINE);
    int64_t *m_created = I64(W_M_CREATED);
    int64_t *m_id = I64(W_M_ID);
    int64_t *m_cid = I64(W_M_CID);
    uint64_t *m_links = U64(W_M_LINKS);
    int64_t *m_status = I64(W_M_STATUS);
    int64_t *m_completed = I64(W_M_COMPLETED);
    int64_t *m_conn = I64(W_M_CONN);
    int64_t *live_rows = I64(W_LIVE_ROWS);
    int64_t *log_cid = I64(W_LOG_CID);
    int64_t *log_lat = I64(W_LOG_LAT);
    int64_t s = *I64(W_SLOT);
    int64_t n_rows = *I64(W_N_ROWS);
    /* A slot delivers at most n messages: the log always takes one. */
    if (log_cap < n || n_rows > row_cap) {
        return -6;
    }

    /* The largest laxity a head can have from here on: a release's is
     * at most its relative deadline, a row's at most its deadline - s +
     * 1.  Laxities at or above the last level start all map to the least
     * urgent level, so the table stops there. */
    int64_t lax_cap = 0;
    for (int64_t c = 0; c < n_conns; c++) {
        if (conn_deadline[c] > lax_cap) {
            lax_cap = conn_deadline[c];
        }
    }
    for (int64_t row = 0; row < n_rows; row++) {
        if (m_deadline[row] - s + 1 > lax_cap) {
            lax_cap = m_deadline[row] - s + 1;
        }
    }
    if (n_lower == 0) {
        lax_cap = 0;
    } else if (lax_cap > rt_level_start[n_lower - 1]) {
        lax_cap = rt_level_start[n_lower - 1];
    }

    /* Wheel size: the next power of two above the largest period, so a
     * re-armed connection never lands in the slot being walked, but at
     * most WHEEL_MAX_SLOTS: a longer period keeps its bit through the
     * laps before it is due, like a late first release. */
    int64_t wheel_slots = 1;
    for (int64_t c = 0; c < n_conns; c++) {
        while (wheel_slots <= conn_period[c] &&
               wheel_slots < WHEEL_MAX_SLOTS) {
            wheel_slots <<= 1;
        }
    }
    const int64_t wheel_mask = wheel_slots - 1;
    const int64_t n_words = (n_conns + 63) / 64;

    /* Scratch: node tables, grant lists, priority table and release
     * wheel (zeroed: the wheel starts empty); the heaps grow apart. */
    Heap *heaps = (Heap *)calloc((size_t)n, sizeof(Heap));
    int64_t *scratch = (int64_t *)calloc(
        (size_t)(n * 7 + lax_cap + 1 + wheel_slots * n_words),
        sizeof(int64_t));
    if (heaps == NULL || scratch == NULL) {
        free(heaps);
        free(scratch);
        return -2;
    }
    int64_t *head_row = scratch;
    int64_t *order = head_row + n;
    uint64_t *okey = (uint64_t *)(order + n);
    int64_t *cur_tx = (int64_t *)(okey + n);
    int64_t *cur_den = cur_tx + n;
    int64_t *nxt_tx = cur_den + n;
    int64_t *nxt_den = nxt_tx + n;
    int64_t *prio_of_lax = nxt_den + n;
    uint64_t *wheel = (uint64_t *)(prio_of_lax + lax_cap + 1);
    int64_t ret = 0;

    /* prio_of_lax[lax] = rt_hi - (level starts <= lax), one fill per
     * level; every start is positive, so entry 0 is rt_hi. */
    {
        int64_t lax = 0;
        for (int64_t k = 0; k <= n_lower; k++) {
            int64_t stop = k < n_lower && rt_level_start[k] <= lax_cap
                               ? rt_level_start[k]
                               : lax_cap + 1;
            for (; lax < stop; lax++) {
                prio_of_lax[lax] = rt_hi - k;
            }
        }
    }

    /* Seed the heaps with the live rows. */
    uint64_t occupied_nodes = fill_heaps(ws, heaps, n, n_rows);
    if (occupied_nodes == ~(uint64_t)0) {
        ret = -3;
        goto done;
    }

    /* The release calendar: each connection's bit filed in the wheel at
     * its next due slot until its stop. */
    for (int64_t c = 0; c < n_conns; c++) {
        if (conn_due[c] < conn_stop[c]) {
            wheel[(conn_due[c] & wheel_mask) * n_words + c / 64] |=
                (uint64_t)1 << (c % 64);
        }
    }

    int64_t p_master = *I64(W_MASTER);
    int64_t prev_master = *I64(W_PREV_MASTER);
    int64_t p_nreq = *I64(W_N_REQ);
    int64_t p_ntx = *I64(W_N_TX);
    int64_t p_nden = *I64(W_N_DEN);
    double p_gap = *F64(W_GAP);
    if (p_ntx > n || p_nden > n) {
        ret = -4;
        goto done;
    }
    for (int64_t j = 0; j < p_ntx; j++) {
        cur_tx[j] = I64(W_TX_ROWS)[j];
    }
    for (int64_t j = 0; j < p_nden; j++) {
        cur_den[j] = I64(W_DEN_ROWS)[j];
    }

    double wall = *F64(W_WALL);
    double slot_t = *F64(W_SLOT_TIME);
    double gap_t = *F64(W_GAP_TIME);
    int64_t busy = *I64(W_BUSY);
    int64_t packets = *I64(W_PACKETS);
    int64_t wasted = *I64(W_WASTED);
    int64_t denials = *I64(W_DENIALS);
    int64_t n_del = *I64(W_N_DEL);
    int64_t n_missed = *I64(W_N_MISSED);
    int64_t n_log = *I64(W_N_LOG);
    int64_t n_compactions = *I64(W_N_COMPACTIONS);
    int64_t compacted = *I64(W_COMPACTED);
    int64_t n_released = *I64(W_N_RELEASED);

    while (s < end) {
        /* The slot boundary: room for this slot's deliveries in the log
         * and for its releases in the table, or return for the glue. */
        if (n_log + p_ntx > log_cap) {
            ret = RET_LOG_FULL;
            break;
        }
        if (n_rows + n_conns > row_cap) {
            const uint64_t *due_bits = wheel + (s & wheel_mask) * n_words;
            int64_t due = 0;
            for (int64_t w = 0; w < n_words; w++) {
                for (uint64_t bits = due_bits[w]; bits; bits &= bits - 1) {
                    due += conn_due[w * 64 + __builtin_ctzll(bits)] == s;
                }
            }
            if (n_rows + due > row_cap) {
                /* The planned rows are live (delivery happens in (c)),
                 * so each has a new index.  The slot only counts the
                 * denials, but an early return writes them back. */
                n_rows = compact_rows(ws, n_pre, n_rows);
                n_compactions++;
                for (int64_t j = 0; j < p_ntx; j++) {
                    cur_tx[j] = live_rows[cur_tx[j]];
                }
                for (int64_t j = 0; j < p_nden; j++) {
                    cur_den[j] = live_rows[cur_den[j]];
                }
                /* What the compaction carried: bit 0 a message in
                 * transit, bit 1 a pending hand-over, bit 2 a pending
                 * break denial. */
                for (int64_t row = 0; row < n_rows; row++) {
                    if (m_status[row] == ST_IN_TRANSIT) {
                        compacted |= 1;
                        break;
                    }
                }
                compacted |= (p_master != prev_master) << 1;
                compacted |= (p_nden > 0) << 2;
                occupied_nodes = fill_heaps(ws, heaps, n, n_rows);
                if (occupied_nodes == ~(uint64_t)0) {
                    ret = -3;
                    goto done;
                }
                if (n_rows + due > row_cap || 2 * n_rows > row_cap) {
                    ret = RET_ROWS_FULL;
                    break;
                }
            }
        }

        /* (a) traffic release: every connection due at s, in the
         * oracle's (slot, source index) polling order. */
        uint64_t *wheel_slot = wheel + (s & wheel_mask) * n_words;
        for (int64_t w = 0; w < n_words; w++) {
            uint64_t bits = wheel_slot[w];
            while (bits) {
                int64_t c = w * 64 + __builtin_ctzll(bits);
                bits &= bits - 1;
                if (conn_due[c] == s) {
                    int64_t row = n_rows++;
                    int64_t node = conn_node[c];
                    int64_t deadline = s + conn_deadline[c];
                    int64_t msg_id = id0 + n_released;
                    m_node[row] = node;
                    m_size[row] = conn_size[c];
                    m_sent[row] = 0;
                    m_deadline[row] = deadline;
                    m_created[row] = s;
                    m_id[row] = msg_id;
                    m_cid[row] = conn_cid[c];
                    m_links[row] = conn_links[c];
                    m_status[row] = ST_PENDING;
                    m_conn[row] = c;
                    Ent e = {deadline, msg_id, row};
                    if (heap_push(&heaps[node], e) != 0) {
                        ret = -3;
                        goto done;
                    }
                    occupied_nodes |= (uint64_t)1 << node;
                    n_released++;
                    uint64_t bit = (uint64_t)1 << (c % 64);
                    wheel_slot[w] &= ~bit;
                    int64_t due = s + conn_period[c];
                    conn_due[c] = due;
                    if (due < conn_stop[c]) {
                        wheel[(due & wheel_mask) * n_words + w] |= bit;
                    }
                }
            }
        }

        /* (b) drop-late: excluded from the closed world. */

        /* (c) execute the pending plan, in grant order. */
        int64_t eff = 0;
        for (int64_t j = 0; j < p_ntx; j++) {
            int64_t row = cur_tx[j];
            if (m_status[row] == ST_DELIVERED) {
                wasted++;
                continue;
            }
            int64_t remaining = m_size[row] - m_sent[row];
            m_sent[row] += 1;
            if (remaining == 1) {
                m_status[row] = ST_DELIVERED;
                m_completed[row] = s;
                int64_t latency = s - m_created[row] + 1;
                int64_t ci = m_cid[row];
                if (latency < lat_width) {
                    lat_counts[ci * lat_width + latency]++;
                } else {
                    log_cid[n_log] = ci;
                    log_lat[n_log] = latency;
                    n_log++;
                }
                n_del++;
                cid_delivered[ci]++;
                if (s > m_deadline[row]) {
                    cid_missed[ci]++;
                    n_missed++;
                }
            } else {
                m_status[row] = ST_IN_TRANSIT;
            }
            eff++;
        }
        if (eff) {
            busy++;
            packets += eff;
        }
        denials += p_nden;

        /* (d) per-slot accounting: the oracle's exact double additions. */
        if (p_gap != 0.0) {
            wall += slot_length + p_gap;
            gap_t += p_gap;
        } else {
            wall += slot_length;
        }
        slot_t += slot_length;
        master_count[p_master]++;
        if (p_master == prev_master) {
            hop_count[0]++;
        } else {
            int64_t hop = (p_master - prev_master) % n;
            if (hop < 0) {
                hop += n;
            }
            hop_count[hop]++;
        }

        /* (e) plan the next slot: EDF heads, mapped priorities, grant
         * sweep in (priority desc, node asc) order. */
        int64_t n_active = 0;
        for (uint64_t pend = occupied_nodes; pend; pend &= pend - 1) {
            int64_t i = __builtin_ctzll(pend);
            Heap *h = &heaps[i];
            while (h->size > 0 && m_status[h->ent[0].row] == ST_DELIVERED) {
                heap_pop(h);
            }
            if (h->size == 0) {
                occupied_nodes &= ~((uint64_t)1 << i);
                continue;
            }
            int64_t row = h->ent[0].row;
            head_row[i] = row;
            int64_t lax =
                m_deadline[row] - s - (m_size[row] - m_sent[row]) + 1;
            int64_t prio = prio_of_lax[lax <= 0         ? 0
                                       : lax >= lax_cap ? lax_cap
                                                        : lax];
            /* Packed key: descending == (priority desc, node asc). */
            okey[i] = ((uint64_t)prio << 16) | (uint64_t)(0xFFFF - i);
            order[n_active++] = i;
        }

        int64_t q_master, q_nreq = n_active, q_ntx = 0, q_nden = 0;
        double q_gap;
        if (n_active) {
            /* Insertion sort, descending key (n <= 62). */
            for (int64_t a = 1; a < n_active; a++) {
                int64_t node = order[a];
                uint64_t key = okey[node];
                int64_t b = a - 1;
                while (b >= 0 && okey[order[b]] < key) {
                    order[b + 1] = order[b];
                    b--;
                }
                order[b + 1] = node;
            }
            int64_t hp = order[0];
            int64_t break_bit = (hp - 1) % n;
            if (break_bit < 0) {
                break_bit += n;
            }
            uint64_t break_mask = (uint64_t)1 << break_bit;
            uint64_t occupied = 0;
            int64_t granted = 0;
            for (int64_t a = 0; a < n_active; a++) {
                if (granted >= limit) {
                    break;
                }
                int64_t node = order[a];
                uint64_t lk = m_links[head_row[node]];
                if (lk == 0) {
                    continue;
                }
                if (lk & break_mask) {
                    nxt_den[q_nden++] = head_row[node];
                    continue;
                }
                if (occupied & lk) {
                    continue;
                }
                nxt_tx[q_ntx++] = head_row[node];
                occupied |= lk;
                granted++;
            }
            q_master = hp;
            q_gap = gap_matrix[p_master * n + hp];
        } else {
            q_master = p_master;
            q_gap = 0.0;
        }

        /* (g) rotate the pipeline. */
        prev_master = p_master;
        p_master = q_master;
        p_gap = q_gap;
        p_nreq = q_nreq;
        p_ntx = q_ntx;
        p_nden = q_nden;
        int64_t *swap = cur_tx;
        cur_tx = nxt_tx;
        nxt_tx = swap;
        swap = cur_den;
        cur_den = nxt_den;
        nxt_den = swap;
        s++;
    }
    if (s == end) {
        if (n_released != n_rel) {
            ret = -5;
            goto done;
        }
        /* Release rows still live, in row order. */
        int64_t n_live = 0;
        for (int64_t row = n_pre; row < n_rows; row++) {
            if (m_status[row] != ST_DELIVERED) {
                live_rows[n_live++] = row;
            }
        }
        *I64(W_N_LIVE) = n_live;
    }

    /* Write the state of the slot boundary back. */
    *I64(W_SLOT) = s;
    *I64(W_N_ROWS) = n_rows;
    *I64(W_N_RELEASED) = n_released;
    *F64(W_WALL) = wall;
    *F64(W_SLOT_TIME) = slot_t;
    *F64(W_GAP_TIME) = gap_t;
    *F64(W_GAP) = p_gap;
    *I64(W_MASTER) = p_master;
    *I64(W_PREV_MASTER) = prev_master;
    *I64(W_N_REQ) = p_nreq;
    *I64(W_N_TX) = p_ntx;
    *I64(W_N_DEN) = p_nden;
    *I64(W_BUSY) = busy;
    *I64(W_PACKETS) = packets;
    *I64(W_WASTED) = wasted;
    *I64(W_DENIALS) = denials;
    *I64(W_N_DEL) = n_del;
    *I64(W_N_MISSED) = n_missed;
    *I64(W_N_LOG) = n_log;
    *I64(W_N_COMPACTIONS) = n_compactions;
    *I64(W_COMPACTED) = compacted;
    for (int64_t j = 0; j < p_ntx; j++) {
        I64(W_TX_ROWS)[j] = cur_tx[j];
    }
    for (int64_t j = 0; j < p_nden; j++) {
        I64(W_DEN_ROWS)[j] = cur_den[j];
    }

done:
    for (int64_t i = 0; i < n; i++) {
        free(heaps[i].ent);
    }
    free(heaps);
    free(scratch);
    return ret;
}
