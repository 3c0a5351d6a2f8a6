"""Adaptive quadrature: QUADPACK's QAGS on a finite interval.

A port of dqagse with its helpers dqk21 (21-point Gauss-Kronrod rule),
dqpsrt (the error-ordered interval list) and dqelg (Wynn's epsilon
algorithm), from R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, QUADPACK, Springer 1983.  Every float operation is the
Fortran's, in the Fortran's order and with its literals, so for finite
limits `quad` returns the same bits as `scipy.integrate.quad`, which wraps
the same routine.  Arrays are 1-based, as in the Fortran, and the comments
name its statement labels.

quad_many integrates one integrand over many intervals with a common lower
limit, as a loop of quads would: the first 21-point pass of every interval
is one batch, which is where a smooth integrand's QAGS ends, and each
interval that passes on goes through quad when its turn in the loop comes.
_qk21 and the batch share one function of the 21 node values, _kronrod.
"""

import math
import sys
import warnings

import numpy as np

# d1mach(1), d1mach(2), d1mach(4)
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
_EPMACH = sys.float_info.epsilon
# the number of subintervals, scipy.integrate.quad's default limit
_LIMIT = 50

# abscissae of the 21-point Kronrod rule: xgk[2], xgk[4], ... are the
# 10-point Gauss abscissae, the others are optimally added to them
_XGK = (
    None,
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
# weights of the 21-point Kronrod rule
_WGK = (
    None,
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# weights of the 10-point Gauss rule
_WG = (
    None,
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# the texts of scipy.integrate.quad, so that a warning prints the same
_MESSAGES = {
    1: f"The maximum number of subdivisions ({_LIMIT}) has been achieved.\n  "
    "If increasing the limit yields no improvement it is advised to "
    "analyze \n  the integrand in order to determine the difficulties.  "
    "If the position of a \n  local difficulty can be determined "
    "(singularity, discontinuity) one will \n  probably gain from "
    "splitting up the interval and calling the integrator \n  on the "
    "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
    "the requested tolerance from being achieved.  "
    "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
    "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
    "in the extrapolation table.  It is assumed that the requested "
    "tolerance\n  cannot be achieved, and that the returned result "
    "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


class IntegrationWarning(UserWarning):
    """quad stopped short of its tolerance; the result is its best estimate."""


def quad(f, a, b, epsabs, epsrel):
    """Integral of f over [a, b] and an estimate of its absolute error.

    f takes and returns a float.  Limits in either order are accepted: for
    b < a the integral over [b, a] is negated, and for a == b it is
    (0.0, 0.0) without a call of f.  A result short of the tolerance is
    returned with an IntegrationWarning; invalid tolerances or infinite
    limits raise ValueError.  Whatever f raises propagates.
    """
    if a == b:
        return 0.0, 0.0
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("quad integrates over finite limits only")
    flip, a, b = b < a, min(a, b), max(a, b)
    result, abserr, ier = _qagse(f, a, b, float(epsabs), float(epsrel))
    if ier == 6:
        raise ValueError(
            "if epsabs <= 0, epsrel must exceed both 5e-29 and 50 machine epsilons"
        )
    if ier:
        warnings.warn(_MESSAGES[ier], IntegrationWarning, stacklevel=2)
    return (-result if flip else result), abserr


def quad_many(f, fmany, a, bs, epsabs, epsrel):
    """The iterator of quad(f, a, b, epsabs, epsrel) for b in bs, bit for
    bit, with the first 21-point pass of all the intervals in one batch.

    fmany takes a 1-D float array of abscissae and returns f's values there;
    it is called once, by quad_many itself, on the first-pass nodes of every
    interval.  The Kronrod sums are _qk21's, elementwise, and numpy does
    only +, -, * and abs; the error scaling and dqagse's first-pass test run
    per interval on Python floats.  An interval that this test does not end,
    and every interval when fmany raises or returns a value that is not
    finite, is integrated by quad(f, ...) when the iterator reaches it, so
    that warnings and errors come where a loop of quads puts them.
    """
    bs = list(bs)
    done = {}
    epsabs, epsrel = float(epsabs), float(epsrel)
    if _valid_tolerances(epsabs, epsrel) and math.isfinite(a):
        batch = {i: float(b) for i, b in enumerate(bs) if a != b and math.isfinite(b)}
        done = _first_passes(fmany, float(a), batch, epsabs, epsrel)
    return (done[i] if i in done else quad(f, a, b, epsabs, epsrel) for i, b in enumerate(bs))


def first_pass_nodes(a, b):
    """The abscissae at which quad(f, a, b, ...) first calls f, in its
    order: the 21 nodes of the first Kronrod pass, none when a == b or a
    limit is not finite."""
    if a == b or not (math.isfinite(a) and math.isfinite(b)):
        return []
    a, b = float(a), float(b)
    lo, hi = min(a, b), max(a, b)
    return _nodes(0.5 * (lo + hi), 0.5 * (hi - lo))


# the order in which _qk21 calls f after the centre: the Gauss abscissae
# xgk[2], xgk[4], ..., then the Kronrod ones, each at centr -+ hlgth * xgk[j]
_CALL_ORDER = (2, 4, 6, 8, 10, 1, 3, 5, 7, 9)
# for each j of _CALL_ORDER: the place in _nodes of f(centr - hlgth *
# xgk[j]), which f(centr + hlgth * xgk[j]) follows, wgk[j] and wg[j / 2]
# for even j; then the places and wgk[j] for j = 1..10, resasc's order
_STEPS = tuple(
    (2 * m + 1, _WGK[j], _WG[j // 2] if j % 2 == 0 else None) for m, j in enumerate(_CALL_ORDER)
)
_ASC = tuple((2 * _CALL_ORDER.index(j) + 1, _WGK[j]) for j in range(1, 11))


def _nodes(centr, hlgth):
    """_qk21's abscissae on the interval(s) of centre centr and half-length
    hlgth (floats or arrays), in its call order."""
    out = [centr]
    for j in _CALL_ORDER:
        absc = hlgth * _XGK[j]
        out += (centr - absc, centr + absc)
    return out


def _kronrod(fv, hlgth):
    """dqk21's sums, in its order, of the 21 values fv of f at _nodes(centr,
    hlgth): (result, abserr, resabs, resasc), with abserr not yet scaled by
    _qk21_error.  On floats, or elementwise on arrays."""
    fc = fv[0]
    resg = 0.0
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for k, wgk, wg in _STEPS:
        fval1, fval2 = fv[k], fv[k + 1]
        fsum = fval1 + fval2
        if wg is not None:
            resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for k, wgk in _ASC:
        resasc = resasc + wgk * (abs(fv[k] - reskh) + abs(fv[k + 1] - reskh))
    dhlgth = abs(hlgth)
    return resk * hlgth, abs((resk - resg) * hlgth), resabs * dhlgth, resasc * dhlgth


def _first_passes(fmany, a, bs, epsabs, epsrel):
    """{i: (result, abserr)} for each interval from a to bs[i] that ends at
    dqagse's first-pass test, bs a dict of finite floats other than a; {}
    when fmany raises or returns a value that is not finite."""
    if not bs:
        return {}
    lo = np.array([min(a, b) for b in bs.values()])
    hi = np.array([max(a, b) for b in bs.values()])
    hlgth = 0.5 * (hi - lo)
    nodes = np.array(_nodes(0.5 * (lo + hi), hlgth))
    try:
        fv = np.asarray(fmany(nodes.ravel()), dtype=float).reshape(nodes.shape)
    except Exception:  # the intervals are integrated one by one instead
        return {}
    if not np.isfinite(fv).all():
        return {}
    with np.errstate(all="ignore"):
        sums = [s.tolist() for s in _kronrod(fv, hlgth)]
    ends = {}
    for (i, b), res, err, defabs, asc in zip(bs.items(), *sums):
        err = _qk21_error(err, defabs, asc)
        if _first_pass(res, err, defabs, asc, epsabs, epsrel) == 0:
            ends[i] = (-res if b < a else res), err
    return ends


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    hlgth = 0.5 * (b - a)
    result, abserr, resabs, resasc = _kronrod([f(v) for v in _nodes(0.5 * (a + b), hlgth)], hlgth)
    return result, _qk21_error(abserr, resabs, resasc), resabs, resasc


def _qk21_error(abserr, resabs, resasc):
    """dqk21's scaling of the raw error estimate |resk - resg| * hlgth."""
    if resasc != 0.0 and abserr != 0.0:
        # min(1, q**1.5), where the power of a q >= 1 (which is >= 1, and
        # may overflow, which C's pow does silently and Python's does not)
        # is never needed
        q = 200.0 * abserr / resasc
        abserr = resasc * (q**1.5 if q < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return abserr


def _qagse(f, a, b, epsabs, epsrel):
    """dqagse: (result, abserr, ier) for a < b."""
    alist = [0.0] * (_LIMIT + 1)
    blist = [0.0] * (_LIMIT + 1)
    rlist = [0.0] * (_LIMIT + 1)
    elist = [0.0] * (_LIMIT + 1)
    iord = [0] * (_LIMIT + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4

    # test on validity of parameters
    alist[1] = a
    blist[1] = b
    if not _valid_tolerances(epsabs, epsrel):
        return 0.0, 0.0, 6

    # first approximation to the integral and test on accuracy
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    ier = _first_pass(result, abserr, defabs, resabs, epsabs, epsrel)
    if ier is not None:
        return result, abserr, ier  # 140
    ier = 0
    dres = abs(result)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1

    # initialization
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    # set on the first pass (label 80) or by an extrapolation, before use
    small = erlarg = ertest = correc = 0.0

    # main do-loop; at last == _LIMIT ier = 1 makes the pass leave it, so the
    # loop never runs to its end
    goto = 100
    for last in range(2, _LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve previous approximations to integral and error and test
        # for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (
                abs(rlist[maxerr] - area12) > 0.1e-04 * abs(area12)
                or erro12 < 0.99 * errmax
            ):
                if extrap:
                    iroff2 = iroff2 + 1
                if not extrap:
                    iroff1 = iroff1 + 1
            # 10
            if last > 10 and erro12 > errmax:
                iroff3 = iroff3 + 1
        # 15
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # test for roundoff error and eventually set error flag
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        # the number of subintervals equals the limit
        if last == _LIMIT:
            ier = 1
        # bad integrand behaviour at a point of the integration range
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (
            abs(a2) + 1000.0 * _UFLOW
        ):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            # 20
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        # 30: keep the error estimates in descending order and select the
        # subinterval with the nrmax-th largest error estimate
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            goto = 115
            break
        if ier != 0:
            break
        if last == 2:
            # 80
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest interval?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        # 40
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and perform extrapolation
            jupbnd = last
            if last > (2 + _LIMIT // 2):
                jupbnd = _LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax = nrmax + 1
            if larger:
                continue

        # 60: perform extrapolation
        numrl2 = numrl2 + 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin = ktmin + 1
        if ktmin > 5 and abserr < 0.1e-02 * errsum:
            ier = 5
        if not (abseps >= abserr):
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # 70: prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate
    if goto == 100:
        goto = 110
        if abserr == _OFLOW:
            goto = 115
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                # 105
                if abserr / abs(result) > errsum / abs(area):
                    goto = 115
            elif abserr > errsum:
                goto = 115
            elif area == 0.0:
                goto = 130
    if goto == 110:
        # test on divergence
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-01):
            ratio = _divide(result, area)
            if 0.1e-01 > ratio or ratio > 0.1e03 or errsum > abs(area):
                ier = 6
    elif goto == 115:
        # compute global integral sum
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    # 130
    if ier > 2:
        ier = ier - 1
    return result, abserr, ier


def _valid_tolerances(epsabs, epsrel):
    return not (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28))


def _first_pass(result, abserr, defabs, resabs, epsabs, epsrel):
    """dqagse's test on the accuracy of the first 21-point pass: its ier
    (0, or 2 for roundoff) when the integral ends there, else None."""
    errbnd = max(epsabs, epsrel * abs(result))
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return ier
    return None


def _divide(x, y):
    """x / y as the Fortran divides: a zero divisor, which Python refuses,
    gives an infinity signed as x * y, or NaN for 0 / 0 and NaN / 0."""
    if y != 0.0:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """dqpsrt: insert the two newest error estimates into the descending
    order iord; returns the new (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # only a difficult integrand, whose subdivision increased the
        # error estimate, moves maxerr up the list
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax = nrmax - 1
        # 30: the number of elements kept in descending order depends on
        # the number of subdivisions still allowed
        jupbn = last
        if last > (_LIMIT // 2 + 2):
            jupbn = _LIMIT + 3 - last
        errmin = elist[last]
        # insert errmax by traversing the list top-down
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # 60: insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k = k - 1
                else:
                    iord[i] = last
                    break
                # 80
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            # 50
            iord[jbnd] = maxerr
            iord[jupbn] = last
    # 90
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of the epsilon algorithm on epstab[1..n]; returns
    (n, result, abserr, nres), with epstab and res3la updated in place."""
    nres = nres + 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy:
            # convergence is assumed
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres  # 100
        # 10
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two elements very close to each other, or irregular behaviour in
        # the table: omit a part of the table by adjusting n
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 0.1e01 / delta1 + 0.1e01 / delta2 - 0.1e01 / delta3
        epsinf = abs(ss * e1)
        if not (epsinf > 0.1e-03):
            n = i + i - 1
            break
        # 30: compute a new element and eventually adjust the result
        res = e1 + 0.1e01 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # 50: shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    ie = newelm + 1
    for _ in range(ie):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx = indx + 1
    # 80
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        # 90: compute error estimate
        abserr = (
            abs(result - res3la[3])
            + abs(result - res3la[2])
            + abs(result - res3la[1])
        )
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    # 100
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
