/* Closed-world CCR-EDF slot micro-kernel.
 *
 * Compiled lazily by repro.sim.vector.ckernel and loaded via ctypes.
 * Executes the per-slot pipeline of repro.sim.engine.Simulation for the
 * strict configuration subset the glue admits (periodic RT-connection
 * traffic only, logarithmic/linear laxity mapping, no observer, no
 * profiler, no drop-late, no faults) and is bit-identical to the oracle
 * for it: the float accumulators advance by the same IEEE-754 double
 * additions in the same order (no reassociation -- never build with
 * -ffast-math), the priority buckets use the same libm log2 the
 * interpreter calls, and grants sweep (priority desc, node asc) with
 * the oracle's break-slot denial and spatial-reuse overlap rules.
 *
 * All state lives in one workspace of 8-byte words handed in by the
 * glue: a header holding the word offset of every field, then the
 * fields in the order of ckernel.WORKSPACE (enum ws_field below).  It
 * carries a message table (pre-existing live messages first, one row
 * per scheduled release after), per-connection release calendar
 * columns, and every output the exit fold reads.  Per-node EDF heaps
 * keyed (deadline, msg_id) and the calendar's due slots are kernel
 * scratch.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Message status codes (mirror repro.core.messages.MessageStatus). */
#define ST_PENDING 0
#define ST_IN_TRANSIT 1
#define ST_DELIVERED 2

/* Workspace fields, in the order of ckernel.WORKSPACE (pinned by
 * tests/sim/vector/test_soa.py).  ws[field] is the field's word offset. */
enum ws_field {
    /* int64 scalars in */
    W_N,
    W_START_SLOT,
    W_N_SLOTS,
    W_LIMIT,
    W_RT_LO,
    W_RT_HI,
    W_LOG_MAP,
    W_LEVELS,
    W_HORIZON,
    W_N_PRE,
    W_N_REL,
    W_N_CONNS,
    W_N_CIDS,
    W_ID0,
    /* int64 scalars in and out: the pending plan */
    W_MASTER,
    W_PREV_MASTER,
    W_N_REQ,
    W_N_TX,
    W_N_DEN,
    /* int64 scalars out */
    W_BUSY,
    W_PACKETS,
    W_WASTED,
    W_DENIALS,
    W_N_DEL,
    W_N_MISSED,
    W_N_LIVE,
    /* float64 scalars */
    W_SLOT_LENGTH,
    W_GAP,
    W_WALL,
    W_SLOT_TIME,
    W_GAP_TIME,
    /* per node */
    W_GAP_MATRIX,
    W_HEAP_CAP,
    W_TX_ROWS,
    W_DEN_ROWS,
    W_MASTER_COUNT,
    W_HOP_COUNT,
    /* per sourced connection */
    W_CONN_NODE,
    W_CONN_SIZE,
    W_CONN_DEADLINE,
    W_CONN_CID,
    W_CONN_LINKS,
    W_CONN_FIRST,
    W_CONN_PERIOD,
    W_CONN_STOP,
    /* per dense connection id */
    W_CID_DELIVERED,
    W_CID_MISSED,
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
    W_LAT,
    W_LAT_BY_CID,
    W_ROW_LOG,
    W_NFIELDS
};

#define I64(f) (ws + ws[f])
#define U64(f) ((uint64_t *)(ws + ws[f]))
#define F64(f) ((double *)(ws + ws[f]))

typedef struct {
    int64_t deadline;
    int64_t msg_id;
    int64_t row;
} Ent;

/* (deadline, msg_id) lexicographic compare -- msg_id is globally unique,
 * so the order is total and matches the Python tuple heaps. */
static inline int ent_lt(const Ent *a, const Ent *b) {
    if (a->deadline != b->deadline) {
        return a->deadline < b->deadline;
    }
    return a->msg_id < b->msg_id;
}

static void heap_push(Ent *heap, int64_t *size, Ent item) {
    int64_t i = (*size)++;
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
}

static void heap_pop(Ent *heap, int64_t *size) {
    int64_t n = --(*size);
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

int64_t repro_run_ckernel(int64_t *ws) {
    const int64_t n = *I64(W_N);
    if (n <= 0 || n > 62) {
        return -1;
    }
    const int64_t start_slot = *I64(W_START_SLOT);
    const int64_t n_slots = *I64(W_N_SLOTS);
    const int64_t limit = *I64(W_LIMIT);
    const int64_t rt_lo = *I64(W_RT_LO);
    const int64_t rt_hi = *I64(W_RT_HI);
    const int64_t log_map = *I64(W_LOG_MAP);
    const int64_t levels = *I64(W_LEVELS);
    const int64_t horizon = *I64(W_HORIZON);
    const int64_t n_pre = *I64(W_N_PRE);
    const int64_t n_rel = *I64(W_N_REL);
    const int64_t n_conns = *I64(W_N_CONNS);
    const int64_t n_cids = *I64(W_N_CIDS);
    const int64_t id0 = *I64(W_ID0);
    const double slot_length = *F64(W_SLOT_LENGTH);
    const double *gap_matrix = F64(W_GAP_MATRIX);
    const int64_t *heap_cap = I64(W_HEAP_CAP);
    int64_t *master_count = I64(W_MASTER_COUNT);
    int64_t *hop_count = I64(W_HOP_COUNT);
    const int64_t *conn_node = I64(W_CONN_NODE);
    const int64_t *conn_size = I64(W_CONN_SIZE);
    const int64_t *conn_deadline = I64(W_CONN_DEADLINE);
    const int64_t *conn_cid = I64(W_CONN_CID);
    const uint64_t *conn_links = U64(W_CONN_LINKS);
    const int64_t *conn_first = I64(W_CONN_FIRST);
    const int64_t *conn_period = I64(W_CONN_PERIOD);
    const int64_t *conn_stop = I64(W_CONN_STOP);
    int64_t *cid_delivered = I64(W_CID_DELIVERED);
    int64_t *cid_missed = I64(W_CID_MISSED);
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
    int64_t *lat = I64(W_LAT);
    int64_t *lat_by_cid = I64(W_LAT_BY_CID);
    /* Delivered rows while the loop runs; live release rows at exit. */
    int64_t *row_log = I64(W_ROW_LOG);
    int64_t n_rows = n_pre + n_rel;

    /* Scratch: per-node heap arena, node tables, grant lists, calendar. */
    int64_t total_cap = 0;
    for (int64_t i = 0; i < n; i++) {
        total_cap += heap_cap[i];
    }
    Ent *arena = (Ent *)malloc((size_t)(total_cap > 0 ? total_cap : 1) *
                               sizeof(Ent));
    int64_t *scratch = (int64_t *)malloc(
        (size_t)(n * 9 + n_cids + n_conns + 1) * sizeof(int64_t));
    if (arena == NULL || scratch == NULL) {
        free(arena);
        free(scratch);
        return -2;
    }
    int64_t *hoff = scratch;
    int64_t *hsz = hoff + n;
    int64_t *head_row = hsz + n;
    int64_t *order = head_row + n;
    uint64_t *okey = (uint64_t *)(order + n);
    int64_t *cur_tx = (int64_t *)(okey + n);
    int64_t *cur_den = cur_tx + n;
    int64_t *nxt_tx = cur_den + n;
    int64_t *nxt_den = nxt_tx + n;
    int64_t *cid_cursor = nxt_den + n;
    int64_t *conn_due = cid_cursor + n_cids;
    int64_t ret = 0;

    int64_t off = 0;
    for (int64_t i = 0; i < n; i++) {
        hoff[i] = off;
        hsz[i] = 0;
        off += heap_cap[i];
        master_count[i] = 0;
        hop_count[i] = 0;
    }
    for (int64_t ci = 0; ci < n_cids; ci++) {
        cid_delivered[ci] = 0;
        cid_missed[ci] = 0;
    }

    /* Seed the heaps with the pre-existing live messages. */
    for (int64_t row = 0; row < n_pre; row++) {
        int64_t node = m_node[row];
        Ent e = {m_deadline[row], m_id[row], row};
        if (hsz[node] >= heap_cap[node]) {
            ret = -3;
            goto done;
        }
        heap_push(arena + hoff[node], &hsz[node], e);
    }

    /* The release calendar: each connection's next due slot (INT64_MAX
     * once its window is spent), and the earliest of them. */
    int64_t next_due = INT64_MAX;
    for (int64_t c = 0; c < n_conns; c++) {
        int64_t due =
            conn_first[c] < conn_stop[c] ? conn_first[c] : INT64_MAX;
        conn_due[c] = due;
        if (due < next_due) {
            next_due = due;
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
    int64_t busy = 0, packets = 0, wasted = 0, denials = 0;
    int64_t n_del = 0, n_missed = 0;
    int64_t n_released = 0;
    int64_t s = start_slot;
    int64_t end = start_slot + n_slots;

    while (s < end) {
        /* (a) traffic release: every connection due at s, in the
         * oracle's (slot, source index) polling order. */
        if (s == next_due) {
            next_due = INT64_MAX;
            for (int64_t c = 0; c < n_conns; c++) {
                int64_t due = conn_due[c];
                if (due == s) {
                    int64_t row = n_pre + n_released;
                    int64_t node = conn_node[c];
                    int64_t deadline = s + conn_deadline[c];
                    int64_t msg_id = id0 + n_released;
                    if (row >= n_rows || hsz[node] >= heap_cap[node]) {
                        ret = -3;
                        goto done;
                    }
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
                    heap_push(arena + hoff[node], &hsz[node], e);
                    n_released++;
                    due = s + conn_period[c];
                    if (due >= conn_stop[c]) {
                        due = INT64_MAX;
                    }
                    conn_due[c] = due;
                }
                if (due < next_due) {
                    next_due = due;
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
                lat[n_del] = latency;
                row_log[n_del] = row;
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
        for (int64_t i = 0; i < n; i++) {
            Ent *heap = arena + hoff[i];
            while (hsz[i] > 0 && m_status[heap[0].row] == ST_DELIVERED) {
                heap_pop(heap, &hsz[i]);
            }
            if (hsz[i] == 0) {
                head_row[i] = -1;
                continue;
            }
            int64_t row = heap[0].row;
            head_row[i] = row;
            int64_t lax =
                m_deadline[row] - s - (m_size[row] - m_sent[row]) + 1;
            int64_t prio;
            if (lax <= 0) {
                prio = rt_hi;
            } else if (log_map) {
                /* Same libm log2 + C truncation the interpreter runs. */
                int64_t bucket = (int64_t)log2((double)(lax + 1));
                prio = rt_hi - bucket;
                if (prio < rt_lo) {
                    prio = rt_lo;
                }
            } else {
                int64_t bucket = (lax * levels) / horizon;
                prio = rt_hi - bucket;
                if (prio < rt_lo) {
                    prio = rt_lo;
                }
            }
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
    if (n_released != n_rel) {
        ret = -5;
        goto done;
    }

    /* Exit aggregates.  Latencies grouped by connection id, each group in
     * delivery order (a counting sort over the delivery log). */
    int64_t pos = 0;
    for (int64_t ci = 0; ci < n_cids; ci++) {
        cid_cursor[ci] = pos;
        pos += cid_delivered[ci];
    }
    for (int64_t k = 0; k < n_del; k++) {
        lat_by_cid[cid_cursor[m_cid[row_log[k]]]++] = lat[k];
    }
    /* Release rows still live, in row order. */
    int64_t n_live = 0;
    for (int64_t row = n_pre; row < n_rows; row++) {
        if (m_status[row] != ST_DELIVERED) {
            row_log[n_live++] = row;
        }
    }

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
    *I64(W_N_LIVE) = n_live;
    for (int64_t j = 0; j < p_ntx; j++) {
        I64(W_TX_ROWS)[j] = cur_tx[j];
    }
    for (int64_t j = 0; j < p_nden; j++) {
        I64(W_DEN_ROWS)[j] = cur_den[j];
    }

done:
    free(arena);
    free(scratch);
    return ret;
}
